// Shared scaffolding for the experiment benches: flag parsing, environment
// construction, expert baselines, and paper-vs-measured table printing.
// Every bench prints the paper's reported values next to our measured ones;
// absolute numbers differ (our substrate is a simulator), the *shape* —
// who wins, by roughly what factor — is the reproduction target.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "src/harness/env.h"
#include "src/harness/runner.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/stats_util.h"
#include "src/util/table_printer.h"

namespace balsa::bench {

/// True under ThreadSanitizer (GCC defines __SANITIZE_THREAD__, clang
/// reports the feature). TSan slows instrumented code unevenly, so timing
/// benches give their ratio gates slack and shrink their workloads there.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

/// Builds an env for the flags, dying on error (benches are executables).
inline std::unique_ptr<Env> MustMakeEnv(WorkloadKind kind,
                                        const BenchFlags& flags,
                                        double noise_factor = 0) {
  EnvOptions options;
  options.data_scale = flags.scale;
  options.estimator_noise_factor = noise_factor;
  auto env = MakeEnv(kind, options);
  BALSA_CHECK(env.ok(), env.status().ToString());
  return std::move(env).value();
}

struct Baselines {
  ExpertBaseline train;
  ExpertBaseline test;
};

inline Baselines MustExpertBaselines(Env& env, bool commdb) {
  auto train = ComputeExpertBaseline(*env.expert(commdb), env.engine(commdb),
                                     env.workload.TrainQueries());
  BALSA_CHECK(train.ok(), train.status().ToString());
  Baselines b;
  b.train = std::move(train).value();
  if (!env.workload.test_indices().empty()) {
    auto test = ComputeExpertBaseline(*env.expert(commdb), env.engine(commdb),
                                      env.workload.TestQueries());
    BALSA_CHECK(test.ok(), test.status().ToString());
    b.test = std::move(test).value();
  }
  return b;
}

inline void PrintHeader(const char* id, const char* paper_claim,
                        const BenchFlags& flags) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("paper: %s\n", paper_claim);
  std::printf("config: %s\n", flags.ToString().c_str());
  std::printf("==============================================================\n");
}

inline std::string Speedup(double expert_ms, double agent_ms) {
  if (agent_ms <= 0) return "n/a";
  return TablePrinter::Fmt(expert_ms / agent_ms, 2) + "x";
}

/// Honors --metrics-json=<path>: dumps the default metrics registry (every
/// instrument the bench's components attached to obs::MetricsRegistry::
/// Default()) as JSON. Call once at bench exit. No-op without the flag.
inline void DumpMetricsJsonIfRequested(const BenchFlags& flags) {
  if (flags.metrics_json.empty()) return;
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  Status status = obs::WriteJsonFile(snapshot, flags.metrics_json);
  if (!status.ok()) {
    std::printf("metrics dump failed: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("metrics: %zu series -> %s\n", snapshot.metrics.size(),
              flags.metrics_json.c_str());
}

}  // namespace balsa::bench
