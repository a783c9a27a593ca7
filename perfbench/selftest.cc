// The benchmark's own tests (run by `python3 perfbench/run.py --self-test`
// or ctest in the benchmark build):
//   1. the same seed gives a byte-identical request stream, and another
//      seed a different one;
//   2. every hot-phase statement parses back to its source query's
//      CanonicalQuery fingerprint (aliases, FROM order and predicate order
//      are cosmetic to the server);
//   3. churn-phase literal shifts yield many distinct fingerprints.
#include <cstdio>
#include <string>
#include <unordered_set>

#include "perfbench/sql_render.h"
#include "src/harness/env.h"
#include "src/serving/query_fingerprint.h"
#include "src/sql/parser.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what.c_str());
    failures++;
  }
}

}  // namespace

int main() {
  using namespace balsa;
  using namespace balsa::perfbench;
  EnvOptions env_options;
  env_options.data_scale = 0.02;
  auto env = MakeEnv(WorkloadKind::kJobTrainAll, env_options);
  if (!env.ok()) {
    std::printf("FAIL: MakeEnv: %s\n", env.status().ToString().c_str());
    return 1;
  }
  const Schema& schema = (*env)->schema();
  std::vector<const Query*> queries;
  for (const Query& q : (*env)->workload.queries()) {
    if (q.num_relations() <= 10) queries.push_back(&q);
  }
  for (const Query& q : (*env)->ext_workload.queries()) {
    if (q.num_relations() <= 10) queries.push_back(&q);
  }
  Expect(queries.size() == 124, "124 JOB + Ext-JOB queries with <= 10 "
                                "relations, got " +
                                    std::to_string(queries.size()));

  constexpr int64_t kRequests = 3000;
  RequestStream a(&schema, queries, {.seed = 5});
  RequestStream b(&schema, queries, {.seed = 5});
  RequestStream c(&schema, queries, {.seed = 6});
  int differing = 0;
  std::unordered_set<int> seen_queries;
  for (int64_t i = 0; i < kRequests; ++i) {
    const RequestStream::Request ra = a.Make(i);
    const RequestStream::Request rb = b.Make(i);
    Expect(ra.sql == rb.sql && ra.query_index == rb.query_index,
           "same seed, different request " + std::to_string(i));
    differing += ra.sql != c.Make(i).sql;
    seen_queries.insert(ra.query_index);

    auto parsed = ParseSql(schema, ra.sql);
    if (!parsed.ok()) {
      Expect(false, "does not parse: " + ra.sql + " (" +
                        parsed.status().ToString() + ")");
      continue;
    }
    Expect(CanonicalizeQuery(*parsed).fingerprint ==
               CanonicalizeQuery(*queries[ra.query_index]).fingerprint,
           "fingerprint differs from the source query: " + ra.sql);
  }
  Expect(differing > kRequests * 9 / 10, "another seed gives another stream");
  Expect(seen_queries.size() > 100, "Zipf stream covers most queries");

  RequestStream churn(&schema, queries, {.seed = 5, .literal_domain = 64});
  std::unordered_set<uint64_t> fingerprints;
  for (int64_t i = 0; i < kRequests; ++i) {
    auto parsed = ParseSql(schema, churn.Make(i).sql);
    Expect(parsed.ok(), "churn request does not parse");
    if (parsed.ok()) fingerprints.insert(QueryFingerprint(*parsed));
  }
  Expect(fingerprints.size() > kRequests * 9 / 10,
         "literal shifts give mostly distinct fingerprints, got " +
             std::to_string(fingerprints.size()));

  std::printf("%s: perfbench self-test\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
