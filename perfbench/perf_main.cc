// balsa_perf: one run of one benchmark workload.
//
//   balsa_perf --workload learn_job|serve --seed N
//              --seconds S --trace 0|1
//
// Prints each measured metric as "name value unit", then a last line
//   RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying every metric the run measured; perfbench/run.py selects the
// BENCHMARK.json set from it. Exits 1 when a correctness or coverage check
// failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/workloads.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace balsa::perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  args.threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  balsa::SetLogLevel(balsa::LogLevel::kWarn);

  MetricSink metrics;
  Outcome outcome;
  if (args.workload == "learn_job") {
    RunLearnJob(args, &metrics, &outcome);
  } else if (args.workload == "serve") {
    RunServeWorkload(args, &metrics, &outcome);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!metrics.Has("peak_rss_mb")) {
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  metrics.Set("error_rate",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) / outcome.attempted
                  : 1.0,
              "ratio");
  metrics.Set("load_threads", args.threads, "count");
  if (outcome.failed > 0) outcome.Check(false, "operations failed");

  metrics.PrintTable((args.workload + (args.trace ? " (traced)" : "")).c_str());
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": "
              "%lld, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.Json().c_str());
  return outcome.correct ? 0 : 1;
}
