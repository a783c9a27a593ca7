// The benchmark's workloads (see README.md for why each exists and which
// layers it stresses). Each one builds its own environment, runs its
// measured phase, checks its outputs and records every metric it measures.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/common.h"

namespace balsa::perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  /// Traced run: also time each layer from the benchmark's side and read
  /// the program's exported counters and stage histograms.
  bool trace = false;
  /// Load threads of the process (the box has 4 cores).
  int threads = 4;
};

/// `learn_job`: simulation bootstrap + fixed RunIteration count on the JOB
/// random split, then test-time planning latency of the trained agent.
void RunLearnJob(const RunArgs& args, MetricSink* metrics, Outcome* outcome);

/// One serving phase: hot (churn = false) or churn (churn = true)
/// open-loop OptimizeSql traffic against its own OptimizerServer.
void RunServe(const RunArgs& args, bool churn, MetricSink* metrics,
              Outcome* outcome);

/// `serve`: the hot phase, whose numbers are the end-to-end metrics, then
/// the churn phase, which feeds the per-layer metrics (its own end-to-end
/// numbers under "churn."); each gets half of args.seconds.
void RunServeWorkload(const RunArgs& args, MetricSink* metrics,
                      Outcome* outcome);

}  // namespace balsa::perfbench
