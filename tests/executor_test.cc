#include "src/exec/executor.h"

#include <cstring>
#include <unordered_map>

#include <gtest/gtest.h>

#include "test_util.h"

namespace balsa {
namespace {

// The executor's original join: an unordered_map from key to build tuple
// indices, probed tuple by tuple. Kept as the reference the flat hash join
// must reproduce tuple for tuple.
Intermediate ReferenceJoin(const Snapshot& snap, const Query& query,
                           const Intermediate& left,
                           const Intermediate& right, int64_t row_cap) {
  auto value = [&](const ColumnRef& c, uint32_t row) {
    return snap.column(query.relations()[c.relation].table_idx,
                       c.column)[row];
  };
  TableSet lset, rset;
  for (int r : left.rels) lset = lset.With(r);
  for (int r : right.rels) rset = rset.With(r);
  auto preds = query.JoinsBetween(lset, rset);
  const bool build_left = left.NumRows() <= right.NumRows();
  const Intermediate& build = build_left ? left : right;
  const Intermediate& probe = build_left ? right : left;
  std::vector<JoinPredicate> oriented;
  for (auto p : preds) {
    if (!build_left) std::swap(p.left, p.right);
    oriented.push_back(p);
  }
  const JoinPredicate& key = oriented[0];
  const int build_slot = build.RelSlot(key.left.relation);
  const int probe_slot = probe.RelSlot(key.right.relation);
  std::unordered_map<int64_t, std::vector<uint32_t>> ht;
  for (int64_t i = 0; i < build.NumRows(); ++i) {
    int64_t v = value(key.left, build.tuples[build_slot][i]);
    if (IsNull(v)) continue;
    ht[v].push_back(static_cast<uint32_t>(i));
  }
  Intermediate out;
  out.rels = left.rels;
  out.rels.insert(out.rels.end(), right.rels.begin(), right.rels.end());
  out.tuples.resize(out.rels.size());
  out.capped = left.capped || right.capped;
  for (int64_t pi = 0; pi < probe.NumRows(); ++pi) {
    int64_t v = value(key.right, probe.tuples[probe_slot][pi]);
    if (IsNull(v)) continue;
    auto it = ht.find(v);
    if (it == ht.end()) continue;
    for (uint32_t bi : it->second) {
      bool pass = true;
      for (size_t i = 1; i < oriented.size(); ++i) {
        const JoinPredicate& e = oriented[i];
        int64_t bv = value(
            e.left, build.tuples[build.RelSlot(e.left.relation)][bi]);
        int64_t pv = value(
            e.right, probe.tuples[probe.RelSlot(e.right.relation)][pi]);
        if (IsNull(bv) || IsNull(pv) || bv != pv) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      const Intermediate& lsrc = build_left ? build : probe;
      const Intermediate& rsrc = build_left ? probe : build;
      int64_t li = build_left ? bi : pi;
      int64_t ri = build_left ? pi : bi;
      for (size_t s = 0; s < left.rels.size(); ++s) {
        out.tuples[s].push_back(lsrc.tuples[s][li]);
      }
      for (size_t s = 0; s < right.rels.size(); ++s) {
        out.tuples[left.rels.size() + s].push_back(rsrc.tuples[s][ri]);
      }
      if (out.NumRows() >= row_cap) {
        out.capped = true;
        return out;
      }
    }
  }
  return out;
}

void ExpectBitwiseEqual(const Intermediate& got, const Intermediate& want,
                        const std::string& what) {
  EXPECT_EQ(got.rels, want.rels) << what;
  EXPECT_EQ(got.capped, want.capped) << what;
  ASSERT_EQ(got.tuples.size(), want.tuples.size()) << what;
  for (size_t c = 0; c < want.tuples.size(); ++c) {
    ASSERT_EQ(got.tuples[c].size(), want.tuples[c].size()) << what;
    EXPECT_EQ(std::memcmp(got.tuples[c].data(), want.tuples[c].data(),
                          want.tuples[c].size() * sizeof(uint32_t)),
              0)
        << what << " column " << c;
  }
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        executor_(fixture_.db.get()) {}

  // Brute-force filtered count of relation `rel`.
  int64_t BruteForceScanCount(int rel) {
    int64_t rows = fixture_.db->row_count(query_.relations()[rel].table_idx);
    int64_t count = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      bool pass = true;
      for (const FilterPredicate& f : query_.FiltersOn(rel)) {
        pass = pass && executor_.EvalFilter(query_, f, r);
      }
      count += pass;
    }
    return count;
  }

  testing::StarFixture fixture_;
  Query query_;
  Executor executor_;
};

TEST_F(ExecutorTest, ScanAppliesFilters) {
  auto scan = executor_.Scan(query_, 1);  // customer, region = 2
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), BruteForceScanCount(1));
  EXPECT_LT(scan->NumRows(),
            fixture_.db->row_count(query_.relations()[1].table_idx));
  EXPECT_GT(scan->NumRows(), 0);
}

TEST_F(ExecutorTest, UnfilteredScanReturnsAllRows) {
  auto scan = executor_.Scan(query_, 0);  // sales, no filters
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(),
            fixture_.db->row_count(query_.relations()[0].table_idx));
}

TEST_F(ExecutorTest, JoinMatchesBruteForce) {
  auto sales = executor_.Scan(query_, 0);
  auto customer = executor_.Scan(query_, 1);
  ASSERT_TRUE(sales.ok() && customer.ok());
  auto joined = executor_.Join(query_, *sales, *customer);
  ASSERT_TRUE(joined.ok());

  // Brute force: count sales rows whose customer_id passes customer's filter.
  Snapshot snap = fixture_.db->GetSnapshot();
  int sales_table = query_.relations()[0].table_idx;
  int cust_col = fixture_.schema()
                     .table(sales_table)
                     .ColumnIndex("customer_id");
  int64_t expected = 0;
  for (uint32_t r = 0; r < snap.row_count(sales_table); ++r) {
    int64_t cid = snap.column(sales_table, cust_col)[r];
    if (IsNull(cid)) continue;
    bool pass = true;
    for (const FilterPredicate& f : query_.FiltersOn(1)) {
      pass = pass && executor_.EvalFilter(query_, f,
                                          static_cast<uint32_t>(cid));
    }
    expected += pass;
  }
  EXPECT_EQ(joined->NumRows(), expected);
}

TEST_F(ExecutorTest, JoinWithoutPredicateFails) {
  auto customer = executor_.Scan(query_, 1);
  auto product = executor_.Scan(query_, 2);
  ASSERT_TRUE(customer.ok() && product.ok());
  auto joined = executor_.Join(query_, *customer, *product);
  EXPECT_FALSE(joined.ok());  // no cross products in SPJ plans
}

TEST_F(ExecutorTest, ExecutePlanEqualsStepwiseJoins) {
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kIndexScan);
  plan.AddJoin(sc, p, JoinOp::kMergeJoin);

  auto by_plan = executor_.Execute(query_, plan);
  ASSERT_TRUE(by_plan.ok());

  auto s1 = executor_.Scan(query_, 0);
  auto s2 = executor_.Scan(query_, 1);
  auto j1 = executor_.Join(query_, *s1, *s2);
  auto s3 = executor_.Scan(query_, 2);
  auto j2 = executor_.Join(query_, *j1, *s3);
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(by_plan->NumRows(), j2->NumRows());
}

TEST_F(ExecutorTest, PhysicalOperatorChoiceDoesNotChangeResult) {
  // The executor measures cardinality; all join operators are equivalent.
  for (JoinOp op : {JoinOp::kHashJoin, JoinOp::kMergeJoin, JoinOp::kNLJoin,
                    JoinOp::kIndexNLJoin}) {
    Plan plan;
    int s = plan.AddScan(0, ScanOp::kSeqScan);
    int c = plan.AddScan(1, ScanOp::kSeqScan);
    plan.AddJoin(s, c, op);
    auto result = executor_.Execute(query_, plan);
    ASSERT_TRUE(result.ok());
    static int64_t reference = -1;
    if (reference < 0) reference = result->NumRows();
    EXPECT_EQ(result->NumRows(), reference) << JoinOpName(op);
  }
}

TEST_F(ExecutorTest, RowCapFlagsIntermediate) {
  ExecutorOptions opts;
  opts.row_cap = 10;
  Executor capped(fixture_.db.get(), opts);
  auto scan = capped.Scan(query_, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->capped);
  EXPECT_LE(scan->NumRows(), 10 + 1);
}

TEST_F(ExecutorTest, InFilter) {
  QueryBuilder b(&fixture_.schema(), "in_q");
  auto q = b.From("customer", "c").FilterIn("c.region", {0, 1}).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(77);
  auto scan = executor_.Scan(*q, 0);
  ASSERT_TRUE(scan.ok());
  // Matches eq(0) + eq(1).
  QueryBuilder b0(&fixture_.schema(), "q0");
  auto q0 = b0.From("customer", "c").Filter("c.region", PredOp::kEq, 0).Build();
  QueryBuilder b1(&fixture_.schema(), "q1");
  auto q1 = b1.From("customer", "c").Filter("c.region", PredOp::kEq, 1).Build();
  q0->set_id(78);
  q1->set_id(79);
  auto s0 = executor_.Scan(*q0, 0);
  auto s1 = executor_.Scan(*q1, 0);
  EXPECT_EQ(scan->NumRows(), s0->NumRows() + s1->NumRows());
}

TEST_F(ExecutorTest, NullsNeverMatchJoins) {
  // person_role-style FK with nulls: verified via the star schema by
  // filtering to NULL (-1), which no row may pass an Eq filter with.
  QueryBuilder b(&fixture_.schema(), "nullq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, -1).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(80);
  auto scan = executor_.Scan(*q, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 0);
}

TEST_F(ExecutorTest, NegativeValuesAreRealValuesNotNulls) {
  // Regression: only -1 is NULL. SetValues may write other negatives, and
  // they must be visible to filters, index-assisted scans, and join keys —
  // the executor used to treat every v < 0 as NULL and drop matching rows.
  int sales = fixture_.schema().TableIndex("sales");
  int cust = fixture_.schema().TableIndex("customer");
  int amount = fixture_.schema().table(sales).ColumnIndex("amount");
  int region = fixture_.schema().table(cust).ColumnIndex("region");
  int cust_id = fixture_.schema().table(sales).ColumnIndex("customer_id");
  ASSERT_TRUE(fixture_.db->SetValues(sales, amount, {{3, -7}, {8, -7}}).ok());
  ASSERT_TRUE(fixture_.db->SetValue(cust, region, 0, -7).ok());

  // The executor pins a snapshot at construction: build a fresh one.
  Executor executor(fixture_.db.get());
  QueryBuilder b(&fixture_.schema(), "negq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, -7).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(81);
  auto by_index = executor.Scan(*q, 0);
  ASSERT_TRUE(by_index.ok());
  EXPECT_EQ(by_index->NumRows(), 2);

  ExecutorOptions no_index;
  no_index.use_index_for_eq = false;
  Executor scanner(fixture_.db.get(), no_index);
  auto by_scan = scanner.Scan(*q, 0);
  ASSERT_TRUE(by_scan.ok());
  EXPECT_EQ(by_scan->tuples, by_index->tuples);  // identical row sequence

  // A negative (non-NULL) region value joins and filters normally.
  QueryBuilder jb(&fixture_.schema(), "negjoin");
  auto jq = jb.From("sales", "s").From("customer", "c")
                .JoinEq("s.customer_id", "c.id")
                .Filter("c.region", PredOp::kEq, -7)
                .Build();
  ASSERT_TRUE(jq.ok());
  jq->set_id(82);
  auto s = executor.Scan(*jq, 0);
  auto c = executor.Scan(*jq, 1);
  ASSERT_TRUE(s.ok() && c.ok());
  EXPECT_EQ(c->NumRows(), 1);  // customer 0, via the index
  auto joined = executor.Join(*jq, *s, *c);
  ASSERT_TRUE(joined.ok());
  // Exactly the sales rows that reference customer 0 — the brute count.
  Snapshot snap = executor.snapshot();
  int64_t expected = 0;
  for (int64_t v : snap.column(sales, cust_id)) expected += v == 0;
  EXPECT_EQ(joined->NumRows(), expected);
}

TEST_F(ExecutorTest, IndexAssistedScanMatchesFullScanEverywhere) {
  // Every eq-filtered scan of the star workload must be bitwise identical
  // with and without the index path, including the capped case.
  ExecutorOptions no_index;
  no_index.use_index_for_eq = false;
  Executor scanner(fixture_.db.get(), no_index);
  for (int64_t value : {0, 1, 2, 5, 9}) {
    QueryBuilder b(&fixture_.schema(), "eqscan");
    auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, value)
                 .Filter("s.store_id", PredOp::kLt, 40)
                 .Build();
    ASSERT_TRUE(q.ok());
    q->set_id(90 + static_cast<int>(value));
    auto indexed = executor_.Scan(*q, 0);
    auto scanned = scanner.Scan(*q, 0);
    ASSERT_TRUE(indexed.ok() && scanned.ok());
    EXPECT_EQ(indexed->tuples, scanned->tuples) << "value " << value;
    EXPECT_EQ(indexed->capped, scanned->capped);
  }
  // Capped: both paths truncate at the same row with the flag set.
  ExecutorOptions capped_indexed;
  capped_indexed.row_cap = 3;
  ExecutorOptions capped_scan = capped_indexed;
  capped_scan.use_index_for_eq = false;
  QueryBuilder b(&fixture_.schema(), "capped_eq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, 0).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(99);
  auto a = Executor(fixture_.db.get(), capped_indexed).Scan(*q, 0);
  auto c = Executor(fixture_.db.get(), capped_scan).Scan(*q, 0);
  ASSERT_TRUE(a.ok() && c.ok());
  EXPECT_EQ(a->tuples, c->tuples);
  EXPECT_EQ(a->capped, c->capped);
}

TEST_F(ExecutorTest, FlatHashJoinMatchesReferenceJoinBitwise) {
  // NULL join keys on both sides of the store and product joins.
  const int sales = fixture_.schema().TableIndex("sales");
  const int store_id = fixture_.schema().table(sales).ColumnIndex("store_id");
  const int product_id =
      fixture_.schema().table(sales).ColumnIndex("product_id");
  std::vector<std::pair<int64_t, int64_t>> nulls;
  for (int64_t row = 0; row < 4000; row += 37) nulls.push_back({row, -1});
  ASSERT_TRUE(fixture_.db->SetValues(sales, store_id, nulls).ok());
  ASSERT_TRUE(fixture_.db->SetValues(sales, product_id, nulls).ok());
  const int customer = fixture_.schema().TableIndex("customer");
  ASSERT_TRUE(fixture_.db->SetValue(customer, 0, 5, -1).ok());

  // A self-join on the fact table: duplicate keys on both sides, joined on
  // one predicate (s1-s2 store) or two (s1-s3 store and product), and a
  // two-relation intermediate ({s1, c}) joined on two predicates.
  QueryBuilder b(&fixture_.schema(), "selfjoin");
  auto q = b.From("sales", "s1")
               .From("sales", "s2")
               .From("sales", "s3")
               .From("customer", "c")
               .JoinEq("s1.store_id", "s2.store_id")
               .JoinEq("s1.store_id", "s3.store_id")
               .JoinEq("s1.product_id", "s3.product_id")
               .JoinEq("s1.customer_id", "c.id")
               .JoinEq("s2.customer_id", "c.id")
               .Filter("s1.amount", PredOp::kLt, 30)
               .Filter("s2.amount", PredOp::kEq, 1)
               .Filter("c.segment", PredOp::kLt, 3)
               .Build();
  ASSERT_TRUE(q.ok());
  q->set_id(100);
  Executor executor(fixture_.db.get());
  auto s1 = executor.Scan(*q, 0);
  auto s2 = executor.Scan(*q, 1);
  auto s3 = executor.Scan(*q, 2);
  auto c = executor.Scan(*q, 3);
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok() && c.ok());
  auto s1c = executor.Join(*q, *s1, *c);
  ASSERT_TRUE(s1c.ok());
  ASSERT_LT(s2->NumRows(), s1->NumRows());
  ASSERT_LT(s1->NumRows(), s3->NumRows());
  ASSERT_LT(s2->NumRows(), s1c->NumRows());

  struct Case {
    const char* name;
    const Intermediate* left;
    const Intermediate* right;
  };
  const Case cases[] = {
      {"s1 x s2, build right", &*s1, &*s2},
      {"s2 x s1, build left", &*s2, &*s1},
      {"s1 x s3, two predicates", &*s1, &*s3},
      {"s3 x s1, two predicates", &*s3, &*s1},
      {"s1c x s2, two predicates", &*s1c, &*s2},
      {"s2 x s1c, two predicates", &*s2, &*s1c},
  };
  const Snapshot snap = executor.snapshot();
  bool cut_mid_run = false;
  for (const Case& k : cases) {
    const Intermediate full =
        ReferenceJoin(snap, *q, *k.left, *k.right, int64_t{1} << 40);
    const int64_t total = full.NumRows();
    ASSERT_GT(total, 1) << k.name;
    // The probe (larger) input's columns: a cap that lands between two
    // tuples of the same probe tuple cuts one key's run of build matches.
    const bool build_left = k.left->NumRows() <= k.right->NumRows();
    const size_t probe_col = build_left ? k.left->rels.size() : 0;
    int64_t mid_run = -1;
    for (int64_t i = 1; i < total && mid_run < 0; ++i) {
      if (full.tuples[probe_col][i] == full.tuples[probe_col][i - 1]) {
        mid_run = i;
      }
    }
    std::vector<int64_t> caps = {1, 2, 3, total / 2, total - 1, total,
                                 total + 1, 4'000'000};
    if (mid_run > 0) {
      caps.push_back(mid_run);
      cut_mid_run = true;
    }
    for (int64_t cap : caps) {
      if (cap < 1) continue;
      ExecutorOptions options;
      options.row_cap = cap;
      Executor capped(fixture_.db.get(), options);
      const std::string what =
          std::string(k.name) + " cap " + std::to_string(cap);
      auto got = capped.Join(*q, *k.left, *k.right);
      ASSERT_TRUE(got.ok()) << what;
      ExpectBitwiseEqual(*got, ReferenceJoin(snap, *q, *k.left, *k.right, cap),
                         what);
      auto count = capped.CountJoin(*q, *k.left, *k.right);
      ASSERT_TRUE(count.ok()) << what;
      EXPECT_EQ(count->rows, got->NumRows()) << what;
      EXPECT_EQ(count->capped, got->capped) << what;
      // Dropping the first relation's column leaves the others as they are.
      TableSet keep;
      for (int r : got->rels) keep = keep.With(r);
      auto kept = capped.JoinKeeping(*q, *k.left, *k.right,
                                     keep.Without(got->rels[0]));
      ASSERT_TRUE(kept.ok()) << what;
      Intermediate want = *got;
      want.rels.erase(want.rels.begin());
      want.tuples.erase(want.tuples.begin());
      ExpectBitwiseEqual(*kept, want, what + " keeping");
    }
  }
  EXPECT_TRUE(cut_mid_run);
  EXPECT_FALSE(executor.CountJoin(*q, *s3, *c).ok());  // no predicate
  EXPECT_FALSE(executor.JoinKeeping(*q, *s1, *s2, TableSet()).ok());
}

}  // namespace
}  // namespace balsa
