// A real in-memory executor over the chunked column store. It evaluates
// filters and equi-joins to produce exact intermediate results; the
// cardinality oracle and the engine latency models are grounded in the row
// counts it measures.
//
// Every Executor reads through a pinned storage Snapshot: results are
// computed against one immutable publication epoch, so scans and joins are
// safe — and bitwise reproducible — while change-stream writers ingest
// concurrently. Scans are morsel-driven: the filter pipeline runs
// chunk-at-a-time with tight branch-free inner loops over each chunk's raw
// values, equality predicates skip chunks whose sealed min/max summary
// excludes the probe value, and morsels (fixed runs of chunks) can be
// scanned in parallel on a caller-provided ThreadPool — results are
// concatenated in chunk order, so they are bitwise identical for any pool
// size, including none. Equality-filtered scans are served from the
// snapshot's per-version hash index (built lazily, retired with the
// version) and produce exactly the sequence a full scan would.
//
// Intermediate relations are materialized as row-id tuples (one row id per
// participating base relation), so no data copying occurs beyond ids.
#pragma once

#include <cstdint>
#include <vector>

#include "src/exec/profile.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/storage/column_store.h"
#include "src/util/status.h"

namespace balsa {

class ThreadPool;

/// An intermediate result: for each tuple, the contributing row id of every
/// base relation in `rels`. Column-major: tuples[i] is the row-id column for
/// rels[i].
struct Intermediate {
  std::vector<int> rels;                       // query relation indices
  std::vector<std::vector<uint32_t>> tuples;   // one column per rel
  bool capped = false;                         // result truncated at row cap

  int64_t NumRows() const {
    return tuples.empty() ? 0 : static_cast<int64_t>(tuples[0].size());
  }
  int RelSlot(int rel) const {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i] == rel) return static_cast<int>(i);
    }
    return -1;
  }
};

struct ExecutorOptions {
  /// Intermediates larger than this are truncated and flagged `capped`.
  /// Plans that hit the cap are "disastrous" in the paper's sense.
  int64_t row_cap = 4'000'000;
  /// Serve equality-filtered scans from the snapshot's hash index instead
  /// of a full pass. Results are identical either way (the index returns
  /// ascending row ids); off only for testing the scan path itself.
  bool use_index_for_eq = true;
  /// Skip chunks whose sealed min/max summary excludes an equality
  /// predicate's value. Results are identical either way; off only for
  /// testing the skip logic against the exhaustive path.
  bool use_chunk_skipping = true;
  /// Chunks per morsel (the unit of scan parallelism and of the tight
  /// filter loops). Only affects performance, never results.
  int morsel_chunks = 16;
  /// When set, full scans fan morsels out across this pool and concatenate
  /// per-morsel matches in chunk order — bitwise identical to the serial
  /// scan. The pool is borrowed and must outlive the executor's calls.
  ThreadPool* pool = nullptr;
  /// Collect per-node measurements (src/exec/profile.h) into the sinks
  /// passed to Scan/Join/ExecuteProfiled. Off (the default) costs nothing:
  /// no clock reads, no extra allocations, and results are bitwise
  /// identical either way — profiling only observes.
  bool profile = false;
};

/// The size of a join that was counted rather than materialized.
struct JoinCount {
  int64_t rows = 0;     // the NumRows() Join would return
  bool capped = false;  // the `capped` flag Join would set
};

/// Evaluates scans and joins of a query against a pinned snapshot. All
/// physical join operators produce identical results; the executor
/// implements them with one hash join (the oracle cares about cardinality,
/// not timing). The join gathers the smaller input's keys, hashes them into
/// an open-addressing table whose entries own contiguous, ascending runs of
/// build tuples, and streams the larger input's tuples through it, writing
/// the matches straight into the output columns (optionally only some of
/// them, see JoinKeeping).
class Executor {
 public:
  explicit Executor(Snapshot snapshot, ExecutorOptions options = {})
      : snapshot_(std::move(snapshot)), options_(options) {}

  /// Convenience: pins the database's current snapshot at construction.
  explicit Executor(const Database* db, ExecutorOptions options = {})
      : Executor(db->GetSnapshot(), options) {}

  /// The snapshot all reads go through (its epoch tags derived results).
  const Snapshot& snapshot() const { return snapshot_; }

  const ExecutorOptions& options() const { return options_; }

  /// Scans relation `rel` of `query`, applying all its filters
  /// morsel-at-a-time over the table's chunks. With options.profile on and
  /// `prof` non-null, fills `prof` with the scan's measurements.
  StatusOr<Intermediate> Scan(const Query& query, int rel,
                              NodeProfile* prof = nullptr) const;

  /// Equi-joins two intermediates on all join predicates crossing them.
  /// Fails if no predicate connects them (no cross products in SPJ plans).
  /// Tuples come out in the larger (probe) input's order, and each probe
  /// tuple's matches in the smaller (build) input's order; the left input
  /// builds on a tie. Output stops at row_cap tuples, flagged `capped`.
  /// With options.profile on and `prof` non-null, fills `prof`.
  StatusOr<Intermediate> Join(const Query& query, const Intermediate& left,
                              const Intermediate& right,
                              NodeProfile* prof = nullptr) const;

  /// Join, but the output holds only the tuple columns of the relations in
  /// `keep` (at least one of the inputs' relations must be kept): rows,
  /// their order and `capped` are Join's. A caller that keeps joining the
  /// result can drop the columns no later join predicate reads, so fewer
  /// are copied.
  StatusOr<Intermediate> JoinKeeping(const Query& query,
                                     const Intermediate& left,
                                     const Intermediate& right, TableSet keep,
                                     NodeProfile* prof = nullptr) const;

  /// The NumRows() and capped flag that Join(query, left, right) returns,
  /// counted without building any tuple: rows = min(matches, row_cap), and
  /// capped when an input was capped or matches >= row_cap. Fails exactly
  /// when Join does.
  StatusOr<JoinCount> CountJoin(const Query& query, const Intermediate& left,
                                const Intermediate& right) const;

  /// Executes a whole plan subtree, returning the final intermediate.
  StatusOr<Intermediate> Execute(const Query& query, const Plan& plan,
                                 int node_idx = -1) const;

  /// Execute with a per-node profile tree: `profile` is resized to the
  /// plan's arena and each executed node's measurements land at its arena
  /// index. Results are bitwise identical to Execute. When options.profile
  /// is off this IS Execute — the profile comes back empty.
  StatusOr<Intermediate> ExecuteProfiled(const Query& query, const Plan& plan,
                                         ExecutionProfile* profile) const;

  /// True if `row` of the relation's base table passes filter `f`.
  bool EvalFilter(const Query& query, const FilterPredicate& f,
                  uint32_t row) const;

 private:
  StatusOr<Intermediate> ExecuteNode(const Query& query, const Plan& plan,
                                     int node_idx,
                                     ExecutionProfile* profile) const;
  int64_t ColumnValue(const Query& query, int rel, int col,
                      uint32_t row) const;

  Snapshot snapshot_;
  ExecutorOptions options_;
};

}  // namespace balsa
