#include "src/stats/card_oracle.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/random_planner.h"
#include "src/harness/env.h"
#include "src/stats/oracle_estimator.h"
#include "src/util/rng.h"
#include "test_util.h"

namespace balsa {
namespace {

class CardOracleTest : public ::testing::Test {
 protected:
  CardOracleTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())) {}

  testing::StarFixture fixture_;
  Query query_;
};

TEST_F(CardOracleTest, SingleRelationMatchesExecutor) {
  Executor executor(fixture_.db.get());
  auto scan = executor.Scan(query_, 1);
  auto card = fixture_.oracle->Cardinality(query_, TableSet::Single(1));
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(card->rows, static_cast<double>(scan->NumRows()));
  EXPECT_FALSE(card->capped);
}

TEST_F(CardOracleTest, JoinCardinalityMatchesExecutor) {
  Executor executor(fixture_.db.get());
  auto s = executor.Scan(query_, 0);
  auto c = executor.Scan(query_, 1);
  auto j = executor.Join(query_, *s, *c);
  auto card = fixture_.oracle->Cardinality(query_,
                                           TableSet::Single(0).With(1));
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(card->rows, static_cast<double>(j->NumRows()));
}

TEST_F(CardOracleTest, CachesResults) {
  TableSet set = query_.AllTables();
  auto first = fixture_.oracle->Cardinality(query_, set);
  ASSERT_TRUE(first.ok());
  int64_t execs = fixture_.oracle->NumExecutions();
  auto second = fixture_.oracle->Cardinality(query_, set);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(fixture_.oracle->NumExecutions(), execs);  // no new executions
  EXPECT_EQ(first->rows, second->rows);
}

TEST_F(CardOracleTest, RejectsQueriesWithoutIds) {
  Query no_id = query_;
  no_id.set_id(-1);
  auto card = fixture_.oracle->Cardinality(no_id, TableSet::Single(0));
  EXPECT_FALSE(card.ok());
}

TEST_F(CardOracleTest, RejectsDisconnectedSets) {
  auto card = fixture_.oracle->Cardinality(query_,
                                           TableSet::Single(1).With(2));
  EXPECT_FALSE(card.ok());
}

TEST_F(CardOracleTest, PlanCardinalitiesCoverAllNodes) {
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kHashJoin);

  auto cards = fixture_.oracle->PlanCardinalities(query_, plan);
  ASSERT_TRUE(cards.ok());
  ASSERT_EQ(cards->size(), static_cast<size_t>(plan.num_nodes()));
  // Each node's cardinality matches a direct oracle query.
  for (int i = 0; i < plan.num_nodes(); ++i) {
    auto direct = fixture_.oracle->Cardinality(query_, plan.node(i).tables);
    EXPECT_EQ((*cards)[i].rows, direct->rows) << "node " << i;
  }
}

TEST_F(CardOracleTest, CardinalityIsPlanShapeInvariant) {
  // Any join order over the same table set yields the same cardinality.
  auto c1 = fixture_.oracle->Cardinality(query_, query_.AllTables());
  // Force recomputation through a different path: new oracle, different
  // stepwise order comes from its smallest-first heuristic on a plan walk.
  CardOracle fresh(fixture_.db.get());
  Plan plan;
  int st = plan.AddScan(3, ScanOp::kSeqScan);
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int j1 = plan.AddJoin(st, s, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  int j2 = plan.AddJoin(j1, p, JoinOp::kHashJoin);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  plan.AddJoin(j2, c, JoinOp::kHashJoin);
  auto cards = fresh.PlanCardinalities(query_, plan);
  ASSERT_TRUE(cards.ok());
  EXPECT_EQ(cards->back().rows, c1->rows);
}

TEST_F(CardOracleTest, ShardedMemoMatchesSingleThreadedResults) {
  // Single-threaded ground truth for every connected subset.
  std::vector<TableSet> sets;
  for (uint64_t bits = 1; bits < 16; ++bits) {
    TableSet set(bits);
    if (query_.IsConnected(set)) sets.push_back(set);
  }
  std::vector<double> baseline(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    auto card = fixture_.oracle->Cardinality(query_, sets[i]);
    ASSERT_TRUE(card.ok());
    baseline[i] = card->rows;
  }

  // Many threads hammering a *fresh* oracle (cold shards, every key racing)
  // must reproduce the exact same values: cardinalities are pure functions
  // of (query, set), so sharding the memo cannot change any result.
  CardOracle fresh(fixture_.db.get());
  constexpr int kThreads = 8;
  std::vector<std::vector<double>> got(
      kThreads, std::vector<double>(sets.size(), -1));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < sets.size(); ++i) {
        size_t pick = (i + static_cast<size_t>(t)) % sets.size();
        auto card = fresh.Cardinality(query_, sets[pick]);
        BALSA_CHECK(card.ok(), card.status().ToString());
        got[static_cast<size_t>(t)][pick] = card->rows;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], baseline) << "thread " << t;
  }
  EXPECT_EQ(fresh.CacheSize(), fixture_.oracle->CacheSize());
}

TEST_F(CardOracleTest, GenerationCountsBumps) {
  CardOracle oracle(fixture_.db.get());
  EXPECT_EQ(oracle.generation(), 0);
  oracle.BumpGeneration();
  oracle.BumpGeneration();
  EXPECT_EQ(oracle.generation(), 2);
  // Bumping versions the statistics regime; the memo (true cardinalities)
  // is untouched.
  ASSERT_TRUE(oracle.Cardinality(query_, TableSet::Single(0)).ok());
  size_t cached = oracle.CacheSize();
  oracle.BumpGeneration();
  EXPECT_EQ(oracle.CacheSize(), cached);
}

TEST_F(CardOracleTest, MutationExpiresMemoizedCardinalitiesOnItsOwn) {
  CardOracle oracle(fixture_.db.get());
  TableSet sales = TableSet::Single(0);  // star query lists sales first
  auto before = oracle.Cardinality(query_, sales);
  ASSERT_TRUE(before.ok());
  EXPECT_GT(oracle.CacheSize(), 0u);
  const uint64_t epoch_before = oracle.data_epoch();

  // Grow the sales table. Memo entries are tagged with the publication
  // epoch of the snapshot they were measured on, so the mutation expires
  // them with no manual invalidation call — a generation bump is about the
  // statistics regime and plays no part here.
  int sales_table = fixture_.schema().TableIndex("sales");
  TableData data = fixture_.db->CopyTableData(sales_table);
  std::vector<int64_t> row(data.columns.size(), 1);
  row[0] = data.row_count;  // fresh PK
  ASSERT_TRUE(fixture_.db->AppendRows(sales_table, {row, row}).ok());

  EXPECT_GT(oracle.data_epoch(), epoch_before);
  EXPECT_EQ(oracle.CacheSize(), 0u);  // everything pre-mutation is stale
  auto fresh = oracle.Cardinality(query_, sales);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->rows, before->rows);  // never served the stale count
}

// The oracle's original measurement, kept as the reference the per-call
// reuse must reproduce: every uncached set is joined from fresh scans in its
// own smallest-first connected order, every prefix is memoized, and a plan
// is measured node by node.
class ReferenceOracle {
 public:
  ReferenceOracle(const Database* db, ExecutorOptions options)
      : db_(db), options_(options) {}

  StatusOr<std::vector<TrueCard>> PlanCardinalities(const Query& query,
                                                    const Plan& plan) {
    Executor executor(db_, options_);
    std::vector<TrueCard> out;
    for (const PlanNode& node : plan.nodes()) {
      BALSA_ASSIGN_OR_RETURN(TrueCard card,
                             Cardinality(executor, query, node.tables));
      out.push_back(card);
    }
    return out;
  }

  StatusOr<TrueCard> Cardinality(const Query& query, TableSet set) {
    return Cardinality(Executor(db_, options_), query, set);
  }

  size_t CacheSize() const { return memo_.size(); }
  int64_t NumExecutions() const { return executions_; }

 private:
  using Key = std::pair<int, uint64_t>;

  void Put(const Query& query, TableSet set, TrueCard card) {
    auto [it, inserted] = memo_.emplace(Key{query.id(), set.bits()}, card);
    if (!inserted && it->second.capped && !card.capped) it->second = card;
  }

  StatusOr<TrueCard> Cardinality(const Executor& executor, const Query& query,
                                 TableSet set) {
    auto it = memo_.find(Key{query.id(), set.bits()});
    if (it != memo_.end()) return it->second;
    return ComputeBySteps(executor, query, set);
  }

  StatusOr<TrueCard> ComputeBySteps(const Executor& executor,
                                    const Query& query, TableSet set) {
    std::vector<std::pair<int64_t, int>> bases;
    std::vector<Intermediate> scans(query.num_relations());
    for (int rel : set) {
      BALSA_ASSIGN_OR_RETURN(scans[rel], executor.Scan(query, rel));
      bases.push_back({scans[rel].NumRows(), rel});
      Put(query, TableSet::Single(rel),
          {static_cast<double>(scans[rel].NumRows()), scans[rel].capped});
    }
    std::sort(bases.begin(), bases.end());
    Intermediate current = std::move(scans[bases[0].second]);
    TableSet done = TableSet::Single(bases[0].second);
    executions_++;
    while (done != set) {
      int next = -1;
      for (const auto& [rows, rel] : bases) {
        if (done.Contains(rel)) continue;
        if (query.CanJoin(done, TableSet::Single(rel))) {
          next = rel;
          break;
        }
      }
      if (next < 0) return Status::InvalidArgument("disconnected");
      TableSet grown = done.With(next);
      BALSA_ASSIGN_OR_RETURN(current,
                             executor.Join(query, current, scans[next]));
      executions_++;
      TrueCard card{static_cast<double>(current.NumRows()), current.capped};
      Put(query, grown, card);
      done = grown;
      if (current.capped) return card;
    }
    return TrueCard{static_cast<double>(current.NumRows()), current.capped};
  }

  const Database* db_;
  ExecutorOptions options_;
  std::map<Key, TrueCard> memo_;
  int64_t executions_ = 0;
};

/// A random connected subset of `query`'s relations.
TableSet RandomConnectedSet(const Query& query, Rng* rng) {
  const int n = query.num_relations();
  TableSet set = TableSet::Single(static_cast<int>(rng->Uniform(n)));
  const int size = static_cast<int>(rng->UniformInt(1, n));
  while (set.size() < size) {
    std::vector<int> grow;
    for (int rel = 0; rel < n; ++rel) {
      if (!set.Contains(rel) && query.CanJoin(set, TableSet::Single(rel))) {
        grow.push_back(rel);
      }
    }
    if (grow.empty()) break;
    set = set.With(grow[rng->Uniform(grow.size())]);
  }
  return set;
}

/// Drives CardOracle and ReferenceOracle through the same random plans and
/// single-set lookups, on one warm memo each and on a cold pair per plan,
/// and requires identical rows, capped flags and memo contents.
void ExpectMatchesReference(const Database* db,
                            const std::vector<const Query*>& queries,
                            const Schema& schema, int64_t row_cap,
                            int plans_per_query, int* capped_nodes) {
  ExecutorOptions options;
  options.row_cap = row_cap;
  CardOracle warm(db, options);
  ReferenceOracle warm_ref(db, options);
  RandomPlanner planner(&schema);
  Rng rng(row_cap);
  auto same = [](const std::vector<TrueCard>& a,
                 const std::vector<TrueCard>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].rows != b[i].rows || a[i].capped != b[i].capped) return false;
    }
    return true;
  };
  for (const Query* query : queries) {
    for (int p = 0; p < plans_per_query; ++p) {
      auto plan = planner.Sample(*query, &rng);
      ASSERT_TRUE(plan.ok());
      const std::string what = query->name() + " plan " + std::to_string(p) +
                               " cap " + std::to_string(row_cap);

      auto want = warm_ref.PlanCardinalities(*query, *plan);
      auto got = warm.PlanCardinalities(*query, *plan);
      ASSERT_TRUE(want.ok() && got.ok()) << what;
      EXPECT_TRUE(same(*got, *want)) << what << " (warm)";
      EXPECT_EQ(warm.CacheSize(), warm_ref.CacheSize()) << what;
      for (const TrueCard& card : *want) *capped_nodes += card.capped;

      CardOracle cold(db, options);
      ReferenceOracle cold_ref(db, options);
      auto cold_got = cold.PlanCardinalities(*query, *plan);
      ASSERT_TRUE(cold_got.ok()) << what;
      EXPECT_TRUE(same(*cold_got, *cold_ref.PlanCardinalities(*query, *plan)))
          << what << " (cold)";
      EXPECT_EQ(cold.CacheSize(), cold_ref.CacheSize()) << what;
      // Reuse never runs more joins than measuring each set from scratch.
      EXPECT_LE(cold.NumExecutions(), cold_ref.NumExecutions()) << what;

      const TableSet set = RandomConnectedSet(*query, &rng);
      auto one = warm.Cardinality(*query, set);
      auto one_ref = warm_ref.Cardinality(*query, set);
      ASSERT_TRUE(one.ok() && one_ref.ok()) << what;
      EXPECT_EQ(one->rows, one_ref->rows) << what << " set " << set.ToString();
      EXPECT_EQ(one->capped, one_ref->capped) << what;
    }
  }
  EXPECT_LE(warm.NumExecutions(), warm_ref.NumExecutions());
}

TEST_F(CardOracleTest, MatchesReferenceOnRandomStarPlans) {
  int capped_nodes = 0;
  ExpectMatchesReference(fixture_.db.get(), {&query_}, fixture_.schema(),
                         4'000'000, 40, &capped_nodes);
  EXPECT_EQ(capped_nodes, 0);
  // Small caps: capped scans, capped joins partway through a set's order,
  // and sets whose measurement stops early at a capped prefix.
  for (int64_t cap : {100, 600, 1500}) {
    ExpectMatchesReference(fixture_.db.get(), {&query_}, fixture_.schema(),
                           cap, 40, &capped_nodes);
  }
  EXPECT_GT(capped_nodes, 0);
}

TEST(CardOracleJobTest, MatchesReferenceOnRandomJobPlans) {
  EnvOptions env_options;
  env_options.data_scale = 0.03;
  auto env = MakeEnv(WorkloadKind::kJobRandomSplit, env_options);
  ASSERT_TRUE(env.ok());
  // Every fifth train query: joins of 2 to 17 relations.
  std::vector<const Query*> queries;
  const std::vector<const Query*> train = (*env)->workload.TrainQueries();
  for (size_t i = 0; i < train.size(); i += 5) queries.push_back(train[i]);
  int capped_nodes = 0;
  ExpectMatchesReference((*env)->db.get(), queries, (*env)->schema(),
                         4'000'000, 3, &capped_nodes);
  ExpectMatchesReference((*env)->db.get(), queries, (*env)->schema(), 300, 3,
                         &capped_nodes);
  EXPECT_GT(capped_nodes, 0);
}

TEST(OracleEstimatorTest, MatchesOracle) {
  auto fixture = testing::MakeStarFixture();
  Query query = testing::MakeStarQuery(fixture.schema());
  OracleCardinalityEstimator est(fixture.db.get(), fixture.oracle.get());
  auto direct = fixture.oracle->Cardinality(query, TableSet::Single(0).With(1));
  EXPECT_EQ(est.EstimateJoinRows(query, TableSet::Single(0).With(1)),
            direct->rows);
  double sel = est.EstimateSelectivity(query, 1);
  EXPECT_GT(sel, 0);
  EXPECT_LT(sel, 1);  // customer has a filter
}

}  // namespace
}  // namespace balsa
