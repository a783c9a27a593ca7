// True-cardinality oracle: measures exact intermediate result sizes by
// actually executing joins on the stored data, with memoization per
// (query, table set). The engine latency models are grounded in these
// measurements, so "reality" diverges from the estimator exactly as it does
// between PostgreSQL's planner and its executor.
//
// A table set is measured by joining its relations left-deep in its
// smallest-first connected order: start from the relation with the fewest
// filtered rows, then keep adding the smallest relation that joins what is
// built so far. Every prefix of that order is memoized on the way. A capped
// prefix ends the measurement: the set is reported capped at that size.
// One call scans each relation once. The order is prefix-closed (a prefix
// of a set's order is the whole order of that prefix's own set), so a set
// resumes from the longest prefix an earlier set of the same call joined,
// and gets bitwise the rows and capped flag a measurement from scratch
// gives. A joined prefix is kept only until the last set that extends it,
// and carries only the tuple columns of its relations that still join a
// relation outside it. The final join of a set that nothing extends only
// counts its rows.
//
// Every computation pins a storage Snapshot and tags its memoized results
// with that snapshot's publication epoch. Data mutation (the change stream)
// advances the epoch on publish, so stale entries expire on their own — no
// manual invalidation, no reader/writer exclusion: cardinality probes run
// concurrently with ingest and always describe one consistent epoch.
//
// Thread safety: the memo table is sharded (kNumShards shards by key hash),
// so the concurrent hot path — a cache hit — takes only one shard lock and
// concurrent hits on different shards never contend. Misses compute without
// any global lock: the executor reads an immutable snapshot, cardinalities
// are pure functions of (query, set, epoch), and every cache write stores
// the same bytes for a given (key, epoch), so concurrent duplicate
// computations are wasteful but can never change a result. Results are
// bitwise identical for any thread count within one epoch.
//
// The generation counter versions the statistics regime the rest of the
// system plans under (TableStats/estimator snapshots). Bumping it does not
// touch the memo — true cardinalities stay true — but lets higher layers
// (the serving plan cache, async training) detect that plans derived from
// older statistics are stale.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "src/exec/executor.h"
#include "src/plan/plan.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct TrueCard {
  double rows = 0;
  /// The executor hit its row cap: the true size is >= rows. Plans through
  /// capped intermediates are "disastrous" in the paper's sense.
  bool capped = false;
};

class CardOracle {
 public:
  static constexpr int kNumShards = 16;

  explicit CardOracle(const Database* db, ExecutorOptions exec_options = {})
      : db_(db), exec_options_(exec_options) {}

  /// True cardinality of the join of `set` (with filters), measured against
  /// a snapshot pinned for this call. Queries must have unique,
  /// non-negative ids.
  StatusOr<TrueCard> Cardinality(const Query& query, TableSet set);

  /// True cardinalities for every node of `plan`, indexed by arena
  /// position, all measured against ONE pinned snapshot. Uncached nodes are
  /// measured in arena order and share the call's scans and joined
  /// prefixes (see the file comment).
  StatusOr<std::vector<TrueCard>> PlanCardinalities(const Query& query,
                                                    const Plan& plan);

  /// Live (current data-epoch) memo entries; stale ones are excluded even
  /// before their lazy eviction.
  size_t CacheSize() const {
    const uint64_t epoch = data_epoch();
    size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      for (const auto& [key, entry] : shard.map) {
        if (entry.epoch == epoch) total++;
      }
    }
    return total;
  }
  /// Probe work done so far: one per uncached set measured, plus one per
  /// join run (materialized or counted). Reusing a prefix skips its joins,
  /// so the count is lower than one full join sequence per set.
  int64_t NumExecutions() const {
    return num_executions_.load(std::memory_order_relaxed);
  }

  /// The storage publication epoch memo entries are currently valid at.
  /// Ingest advances it on every published batch; entries stamped with
  /// older epochs read as misses and are erased lazily on next touch, so a
  /// write-heavy stream invalidates continuously at zero cost. In-flight
  /// computations stamp their results with the epoch of the snapshot they
  /// pinned, so they can never resurrect pre-mutation counts as current.
  uint64_t data_epoch() const { return db_->publication_epoch(); }

  const Database* db() const { return db_; }

  /// Statistics generation this oracle's consumers currently plan under.
  /// Monotonic; the serving layer keys its plan cache by it so a bump
  /// lazily invalidates every cached plan (see src/serving/plan_cache.h).
  int64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  struct Entry {
    TrueCard card;
    /// Publication epoch of the snapshot the cardinality was measured on.
    uint64_t epoch = 0;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, Entry> map GUARDED_BY(mu);
  };

  static uint64_t Key(int query_id, TableSet set) {
    uint64_t h = static_cast<uint64_t>(query_id + 1) * 0x9E3779B97F4A7C15ULL;
    h ^= set.bits() + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
    return h;
  }

  Shard& ShardFor(uint64_t key) {
    // The low bits already mix query id and set bits; fold the high half in
    // so shard choice is not dominated by either.
    return shards_[(key ^ (key >> 32)) % kNumShards];
  }
  /// Hit only for entries at `epoch`; entries at older epochs are erased
  /// and read as misses.
  bool TryGet(uint64_t key, uint64_t epoch, TrueCard* out);
  /// Inserts `card` computed under `epoch`. Never downgrades: a same-epoch
  /// uncapped value is not replaced by a capped one, and a newer-epoch
  /// entry is not replaced by a laggard computation's older-epoch result.
  void Put(uint64_t key, TrueCard card, uint64_t epoch);

  static Status ValidateSet(const Query& query, TableSet set);
  /// Fills (*cards)[i] with the cardinality of sets[i], all measured
  /// against `executor`'s pinned snapshot and memoized at its epoch. Each
  /// uncached set is joined left-deep in its smallest-first connected order
  /// (see the file comment), in the order given, reusing this call's scans
  /// and earlier sets' prefixes.
  Status Measure(const Executor& executor, const Query& query,
                 const std::vector<TableSet>& sets,
                 std::vector<TrueCard>* cards);

  const Database* db_;
  ExecutorOptions exec_options_;
  Shard shards_[kNumShards];
  /// Intentionally unguarded: relaxed execution tally (NumExecutions is a
  /// progress probe, not a consistent cut over the shard maps).
  std::atomic<int64_t> num_executions_{0};
  /// Intentionally unguarded: monotone generation published with
  /// acquire/release (see generation()/BumpGeneration()).
  std::atomic<int64_t> generation_{0};
};

}  // namespace balsa
