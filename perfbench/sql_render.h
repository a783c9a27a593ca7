// Seeded request generation for the serving workloads. A request is a
// workload Query rendered back to SQL the way an independent client might
// write it: fresh random aliases, a shuffled FROM list, shuffled predicate
// order (join sides swapped at random) and, for the churn workload, filter
// literals shifted within a per-predicate domain. The server receives only
// the SQL text, so parsing and fingerprint canonicalisation do real work on
// every request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/plan/query_graph.h"
#include "src/util/rng.h"

namespace balsa::perfbench {

/// Renders `query` as one SPJ statement ParseSql accepts. Aliases, FROM
/// order, predicate order and join-side orientation come from `rng`; every
/// filter literal (each IN value alike) is shifted by its own offset drawn
/// uniformly from [0, literal_domain) when literal_domain > 1.
std::string RenderSql(const Schema& schema, const Query& query, Rng* rng,
                      int literal_domain = 0);

struct RequestStreamOptions {
  uint64_t seed = 0;
  /// See RenderSql; 0 keeps the workload's literals.
  int literal_domain = 0;
};

/// An endless, deterministic request stream: request i is a pure function
/// of (seed, i), so any thread can render any request and the same seed
/// always yields a byte-identical stream. Query popularity is Zipf(kZipfS)
/// over the queries in the given order (the first is the most popular);
/// the ranking does not depend on the seed, so every seed offers the same
/// traffic mix.
class RequestStream {
 public:
  RequestStream(const Schema* schema, std::vector<const Query*> queries,
                RequestStreamOptions options);

  struct Request {
    int query_index = 0;  // into the constructor's `queries`
    std::string sql;
  };
  Request Make(int64_t i) const;

 private:
  static constexpr double kZipfS = 0.9;

  const Schema* schema_;
  std::vector<const Query*> queries_;
  RequestStreamOptions options_;
  ZipfGenerator popularity_;
};

}  // namespace balsa::perfbench
