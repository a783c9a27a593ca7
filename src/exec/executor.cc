#include "src/exec/executor.h"

#include <algorithm>
#include <chrono>

#include "src/obs/trace.h"
#include "src/util/parallel_for.h"

namespace balsa {

namespace {

/// ANDs one vectorizable predicate into sel[0..n) with a branch-free loop
/// over a chunk's raw values. NULL (exactly kNullValue) fails every
/// predicate; for kEq the comparison subsumes the NULL check whenever the
/// probe itself is non-NULL.
void ApplyFilterToChunk(PredOp op, int64_t value, const int64_t* v, int64_t n,
                        uint8_t* sel) {
  switch (op) {
    case PredOp::kEq:
      if (value == kNullValue) {
        std::fill(sel, sel + n, static_cast<uint8_t>(0));
        return;
      }
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] == value);
      }
      return;
    case PredOp::kNe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] != value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kLt:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] < value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kLe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] <= value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kGt:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] > value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kGe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] >= value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kIn:
      break;  // handled per-row by the caller (EvalFilter fallback)
  }
}

/// Fused single-predicate scan of one chunk: with exactly one vectorizable
/// filter the selection bitmap's extra passes cost more than they save, so
/// matches are emitted directly in one pass over the chunk's raw values.
/// Returns true when the local row cap was hit.
bool FusedScanChunk(PredOp op, int64_t value, const int64_t* v, int64_t n,
                    int64_t base, int64_t cap,
                    std::vector<uint32_t>* matches) {
  auto emit = [&](int64_t i) {
    matches->push_back(static_cast<uint32_t>(base + i));
    return static_cast<int64_t>(matches->size()) >= cap;
  };
  switch (op) {
    case PredOp::kEq:
      if (value == kNullValue) return false;
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] == value && emit(i)) return true;
      }
      return false;
    case PredOp::kNe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] != value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kLt:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] < value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kLe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] <= value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kGt:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] > value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kGe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] >= value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kIn:
      break;
  }
  return false;
}

}  // namespace

int64_t Executor::ColumnValue(const Query& query, int rel, int col,
                              uint32_t row) const {
  int table_idx = query.relations()[rel].table_idx;
  return snapshot_.column(table_idx, col)[static_cast<int64_t>(row)];
}

bool Executor::EvalFilter(const Query& query, const FilterPredicate& f,
                          uint32_t row) const {
  int64_t v = ColumnValue(query, f.col.relation, f.col.column, row);
  if (IsNull(v)) return false;  // NULL fails every predicate
  switch (f.op) {
    case PredOp::kEq: return v == f.value;
    case PredOp::kNe: return v != f.value;
    case PredOp::kLt: return v < f.value;
    case PredOp::kLe: return v <= f.value;
    case PredOp::kGt: return v > f.value;
    case PredOp::kGe: return v >= f.value;
    case PredOp::kIn:
      return std::find(f.in_values.begin(), f.in_values.end(), v) !=
             f.in_values.end();
  }
  return false;
}

StatusOr<Intermediate> Executor::Scan(const Query& query, int rel,
                                      NodeProfile* prof) const {
  // One span per relation scanned; inert unless the calling thread carries
  // a sampled request's trace context (obs::ScopedTraceContext).
  obs::SpanTimer span(obs::TraceStage::kExecScan);
  // Profiling observes only: with the option off (or no sink) no clock is
  // read and no counter is kept — the scan below is byte-for-byte the
  // unprofiled one.
  const bool profiled = options_.profile && prof != nullptr;
  std::chrono::steady_clock::time_point prof_start;
  if (profiled) {
    *prof = NodeProfile{};
    prof->relation = rel;
    prof_start = std::chrono::steady_clock::now();
  }
  auto finish = [&](Intermediate&& out) -> Intermediate {
    if (profiled) {
      prof->rows_out = out.NumRows();
      prof->capped = out.capped;
      prof->wall_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - prof_start)
                              .count();
    }
    return std::move(out);
  };
  if (rel < 0 || rel >= query.num_relations()) {
    return Status::OutOfRange("relation " + std::to_string(rel));
  }
  int table_idx = query.relations()[rel].table_idx;
  if (!snapshot_.HasData(table_idx)) {
    return Status::FailedPrecondition("no data for table index " +
                                      std::to_string(table_idx));
  }
  auto filters = query.FiltersOn(rel);

  Intermediate out;
  out.rels = {rel};
  out.tuples.resize(1);
  auto& rows = out.tuples[0];
  auto passes_all_but = [&](uint32_t r, int skip) {
    for (size_t i = 0; i < filters.size(); ++i) {
      if (static_cast<int>(i) == skip) continue;
      if (!EvalFilter(query, filters[i], r)) return false;
    }
    return true;
  };

  // Index-assisted path: an equality filter's matches come straight from
  // the snapshot's hash index, in the same ascending row order a full scan
  // would produce (a kEq on NULL matches nothing either way — NULLs fail
  // every predicate and are not indexed).
  int eq = -1;
  if (options_.use_index_for_eq) {
    for (size_t i = 0; i < filters.size(); ++i) {
      if (filters[i].op == PredOp::kEq) {
        eq = static_cast<int>(i);
        break;
      }
    }
  }
  if (eq >= 0) {
    if (profiled) prof->used_index = true;
    const FilterPredicate& f = filters[static_cast<size_t>(eq)];
    const HashIndex& index = snapshot_.index(table_idx, f.col.column);
    for (uint32_t r : index.Lookup(f.value)) {
      if (!passes_all_but(r, eq)) continue;
      rows.push_back(r);
      if (static_cast<int64_t>(rows.size()) >= options_.row_cap) {
        out.capped = true;
        break;
      }
    }
    return finish(std::move(out));
  }

  // Morsel-driven chunked scan. Vectorizable predicates run branch-free
  // over each chunk's raw values into a selection bitmap; kIn (the only
  // per-row predicate) filters the survivors. Equality predicates first
  // consult the chunk's sealed min/max summary and skip chunks that cannot
  // match. Morsels produce disjoint ascending row ranges, so concatenating
  // their matches in order reproduces the serial scan bitwise.
  struct VecFilter {
    PredOp op;
    int64_t value;
    const ChunkedColumn* column;
  };
  std::vector<VecFilter> vectorized;
  std::vector<const FilterPredicate*> per_row;
  for (const FilterPredicate& f : filters) {
    if (f.op == PredOp::kIn) {
      per_row.push_back(&f);
    } else {
      vectorized.push_back(
          {f.op, f.value, &snapshot_.column(table_idx, f.col.column)});
    }
  }

  const int64_t num_rows = snapshot_.row_count(table_idx);
  const int num_chunks = ChunkCountForRows(num_rows);
  const int chunks_per_morsel = std::max(1, options_.morsel_chunks);
  const int num_morsels =
      (num_chunks + chunks_per_morsel - 1) / chunks_per_morsel;

  std::vector<std::vector<uint32_t>> morsel_rows(
      static_cast<size_t>(num_morsels));
  // Skip counts are per-morsel (summed after the parallel section), so
  // profiling stays race-free and deterministic under any pool size.
  std::vector<int64_t> morsel_skipped;
  if (profiled) {
    prof->chunks_total = num_chunks;
    prof->morsels = num_morsels;
    morsel_skipped.assign(static_cast<size_t>(num_morsels), 0);
  }
  auto scan_morsel = [&](size_t m) {
    std::vector<uint8_t> sel;
    std::vector<uint32_t>& matches = morsel_rows[m];
    const int first = static_cast<int>(m) * chunks_per_morsel;
    const int last = std::min(num_chunks, first + chunks_per_morsel);
    for (int ci = first; ci < last; ++ci) {
      if (options_.use_chunk_skipping) {
        bool skip = false;
        for (const VecFilter& f : vectorized) {
          if (f.op == PredOp::kEq && !f.column->chunk(ci).MayContain(f.value)) {
            skip = true;
            break;
          }
        }
        if (skip) {
          if (profiled) morsel_skipped[m]++;
          continue;
        }
      }
      const int64_t base = static_cast<int64_t>(ci) << kChunkShift;
      const int64_t n = std::min(kChunkRows, num_rows - base);
      if (vectorized.size() == 1 && per_row.empty()) {
        const VecFilter& f = vectorized[0];
        if (FusedScanChunk(f.op, f.value, f.column->chunk(ci).data(), n,
                           base, options_.row_cap, &matches)) {
          return;
        }
        continue;
      }
      sel.assign(static_cast<size_t>(n), 1);
      for (const VecFilter& f : vectorized) {
        ApplyFilterToChunk(f.op, f.value, f.column->chunk(ci).data(), n,
                           sel.data());
      }
      for (int64_t i = 0; i < n; ++i) {
        if (!sel[static_cast<size_t>(i)]) continue;
        uint32_t r = static_cast<uint32_t>(base + i);
        bool pass = true;
        for (const FilterPredicate* f : per_row) {
          if (!EvalFilter(query, *f, r)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        matches.push_back(r);
        // A morsel never needs more than row_cap matches: only the first
        // row_cap overall survive, and hitting the cap locally already
        // proves the scan is capped.
        if (static_cast<int64_t>(matches.size()) >= options_.row_cap) return;
      }
    }
  };
  if (options_.pool != nullptr && num_morsels > 1) {
    ParallelFor(options_.pool, static_cast<size_t>(num_morsels), scan_morsel);
  } else {
    for (size_t m = 0; m < static_cast<size_t>(num_morsels); ++m) {
      scan_morsel(m);
    }
  }

  if (profiled) {
    for (int64_t skipped : morsel_skipped) prof->chunks_skipped += skipped;
  }

  int64_t total = 0;
  for (const auto& matches : morsel_rows) {
    total += static_cast<int64_t>(matches.size());
  }
  out.capped = total >= options_.row_cap;
  rows.reserve(static_cast<size_t>(std::min(total, options_.row_cap)));
  for (const auto& matches : morsel_rows) {
    for (uint32_t r : matches) {
      if (static_cast<int64_t>(rows.size()) >= options_.row_cap) {
        return finish(std::move(out));
      }
      rows.push_back(r);
    }
  }
  return finish(std::move(out));
}

namespace {

/// An open-addressing hash table over a join's build keys. Each distinct key
/// owns one contiguous run of build row indices in ascending order (a
/// counting sort by key), so a probe walks its matches in exactly the order
/// they were inserted. NULL keys are never inserted: kNullValue doubles as
/// the empty-slot marker.
class FlatJoinTable {
 public:
  /// `keys[i]` is build row i's key.
  explicit FlatJoinTable(const std::vector<int64_t>& keys) {
    const size_t n = keys.size();
    int bits = 4;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    slot_key_.assign(mask_ + 1, kNullValue);
    slot_group_.resize(mask_ + 1);
    constexpr uint32_t kNoGroup = ~uint32_t{0};
    std::vector<uint32_t> group_of(n, kNoGroup);
    for (size_t i = 0; i < n; ++i) {
      const int64_t key = keys[i];
      if (IsNull(key)) continue;  // NULL keys never match
      size_t h = Slot(key);
      while (slot_key_[h] != kNullValue && slot_key_[h] != key) {
        h = (h + 1) & mask_;
      }
      if (slot_key_[h] == kNullValue) {
        slot_key_[h] = key;
        slot_group_[h] = static_cast<uint32_t>(run_begin_.size());
        run_begin_.push_back(0);
      }
      group_of[i] = slot_group_[h];
      run_begin_[group_of[i]]++;
    }
    // Counts -> run starts (exclusive prefix sum), with a trailing end.
    uint32_t total = 0;
    for (uint32_t& begin : run_begin_) {
      const uint32_t count = begin;
      begin = total;
      total += count;
    }
    run_begin_.push_back(total);
    rows_.resize(total);
    std::vector<uint32_t> fill(run_begin_.begin(), run_begin_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      if (group_of[i] != kNoGroup) {
        rows_[fill[group_of[i]]++] = static_cast<uint32_t>(i);
      }
    }
  }

  struct Run {
    const uint32_t* first;
    const uint32_t* last;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return last; }
  };

  /// The ascending build rows whose key is `key`; empty for NULL or no
  /// match.
  Run Find(int64_t key) const {
    if (IsNull(key)) return {nullptr, nullptr};
    for (size_t h = Slot(key); slot_key_[h] != kNullValue;
         h = (h + 1) & mask_) {
      if (slot_key_[h] == key) {
        const uint32_t g = slot_group_[h];
        return {rows_.data() + run_begin_[g], rows_.data() + run_begin_[g + 1]};
      }
    }
    return {nullptr, nullptr};
  }

 private:
  size_t Slot(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  int shift_ = 0;
  size_t mask_ = 0;
  std::vector<int64_t> slot_key_;
  std::vector<uint32_t> slot_group_;
  std::vector<uint32_t> run_begin_;  // run g is rows_[run_begin_[g], [g+1])
  std::vector<uint32_t> rows_;
};

const ChunkedColumn& RefColumn(const Snapshot& snapshot, const Query& query,
                               const ColumnRef& ref) {
  return snapshot.column(query.relations()[ref.relation].table_idx,
                         ref.column);
}

/// The predicates joining `build` to `probe`, oriented so that .left refers
/// to the build side.
StatusOr<std::vector<JoinPredicate>> OrientedJoinPredicates(
    const Query& query, const Intermediate& build, const Intermediate& probe) {
  TableSet bset, pset;
  for (int r : build.rels) bset = bset.With(r);
  for (int r : probe.rels) pset = pset.With(r);
  auto preds = query.JoinsBetween(bset, pset);
  if (preds.empty()) {
    return Status::InvalidArgument("no join predicate between " +
                                   bset.ToString() + " and " +
                                   pset.ToString());
  }
  return preds;
}

/// Hash-joins `build` and `probe` on `oriented` (the first predicate is the
/// hash key, the rest are checked per pair) and calls emit(bi, pi) for each
/// matching pair of tuple indices in output order: probe tuples ascending,
/// and each one's build matches ascending. Stops early when emit returns
/// true.
template <typename Emit>
void ForEachJoinPair(const Snapshot& snapshot, const Query& query,
                     const Intermediate& build, const Intermediate& probe,
                     const std::vector<JoinPredicate>& oriented, Emit emit) {
  const JoinPredicate& key = oriented[0];
  const ChunkedColumn& build_key = RefColumn(snapshot, query, key.left);
  const ChunkedColumn& probe_key = RefColumn(snapshot, query, key.right);
  const std::vector<uint32_t>& build_rows =
      build.tuples[static_cast<size_t>(build.RelSlot(key.left.relation))];
  const std::vector<uint32_t>& probe_rows =
      probe.tuples[static_cast<size_t>(probe.RelSlot(key.right.relation))];

  std::vector<int64_t> keys(build_rows.size());
  for (size_t i = 0; i < build_rows.size(); ++i) {
    keys[i] = build_key[build_rows[i]];
  }
  const FlatJoinTable table(keys);
  keys = {};

  // The extra predicates, verified per candidate pair.
  struct ExtraPred {
    const uint32_t* build_rows;
    const uint32_t* probe_rows;
    const ChunkedColumn* build_col;
    const ChunkedColumn* probe_col;
  };
  std::vector<ExtraPred> extras;
  for (size_t i = 1; i < oriented.size(); ++i) {
    const JoinPredicate& p = oriented[i];
    extras.push_back(
        {build.tuples[static_cast<size_t>(build.RelSlot(p.left.relation))]
             .data(),
         probe.tuples[static_cast<size_t>(probe.RelSlot(p.right.relation))]
             .data(),
         &RefColumn(snapshot, query, p.left),
         &RefColumn(snapshot, query, p.right)});
  }

  for (size_t pi = 0; pi < probe_rows.size(); ++pi) {
    for (const uint32_t bi : table.Find(probe_key[probe_rows[pi]])) {
      bool pass = true;
      for (const ExtraPred& e : extras) {
        const int64_t bv = (*e.build_col)[e.build_rows[bi]];
        const int64_t pv = (*e.probe_col)[e.probe_rows[pi]];
        if (IsNull(bv) || IsNull(pv) || bv != pv) {
          pass = false;
          break;
        }
      }
      if (pass && emit(bi, pi)) return;
    }
  }
}

}  // namespace

StatusOr<Intermediate> Executor::Join(const Query& query,
                                      const Intermediate& left,
                                      const Intermediate& right,
                                      NodeProfile* prof) const {
  TableSet all;
  for (int r : left.rels) all = all.With(r);
  for (int r : right.rels) all = all.With(r);
  return JoinKeeping(query, left, right, all, prof);
}

StatusOr<Intermediate> Executor::JoinKeeping(const Query& query,
                                             const Intermediate& left,
                                             const Intermediate& right,
                                             TableSet keep,
                                             NodeProfile* prof) const {
  obs::SpanTimer span(obs::TraceStage::kExecJoin);
  const bool profiled = options_.profile && prof != nullptr;
  std::chrono::steady_clock::time_point prof_start;
  if (profiled) {
    *prof = NodeProfile{};
    prof->is_join = true;
    prof->rows_in_left = left.NumRows();
    prof->rows_in_right = right.NumRows();
    prof_start = std::chrono::steady_clock::now();
  }
  // Build a hash table on the smaller input, keyed by the first predicate.
  const bool build_left = left.NumRows() <= right.NumRows();
  const Intermediate& build = build_left ? left : right;
  const Intermediate& probe = build_left ? right : left;
  BALSA_ASSIGN_OR_RETURN(std::vector<JoinPredicate> oriented,
                         OrientedJoinPredicates(query, build, probe));

  // Output columns are the kept rels of (left rels..., right rels...), each
  // copied from its source column of the build or the probe side.
  Intermediate out;
  out.capped = left.capped || right.capped;
  struct Copy {
    const uint32_t* from;
    size_t slot;  // output column
  };
  std::vector<Copy> build_copies, probe_copies;
  for (const bool is_left : {true, false}) {
    const Intermediate& side = is_left ? left : right;
    for (size_t s = 0; s < side.rels.size(); ++s) {
      if (!keep.Contains(side.rels[s])) continue;
      (is_left == build_left ? build_copies : probe_copies)
          .push_back({side.tuples[s].data(), out.rels.size()});
      out.rels.push_back(side.rels[s]);
    }
  }
  if (out.rels.empty()) {
    return Status::InvalidArgument("a join must keep one of its relations");
  }
  out.tuples.resize(out.rels.size());

  // Matches are staged in small batches of (build, probe) index pairs and
  // appended one column at a time, so each column is written by one tight
  // gather loop.
  constexpr size_t kBatch = 1024;
  uint32_t batch_build[kBatch];
  uint32_t batch_probe[kBatch];
  size_t batched = 0;
  auto gather = [&](const std::vector<Copy>& copies, const uint32_t* index) {
    for (const Copy& copy : copies) {
      std::vector<uint32_t>& column = out.tuples[copy.slot];
      const size_t base = column.size();
      column.resize(base + batched);
      uint32_t* to = column.data() + base;
      for (size_t k = 0; k < batched; ++k) to[k] = copy.from[index[k]];
    }
  };
  auto flush = [&] {
    gather(build_copies, batch_build);
    gather(probe_copies, batch_probe);
    batched = 0;
  };
  int64_t rows = 0;
  ForEachJoinPair(snapshot_, query, build, probe, oriented,
                  [&](uint32_t bi, size_t pi) {
                    batch_build[batched] = bi;
                    batch_probe[batched] = static_cast<uint32_t>(pi);
                    if (++batched == kBatch) flush();
                    if (++rows >= options_.row_cap) {
                      out.capped = true;
                      return true;
                    }
                    return false;
                  });
  flush();
  if (profiled) {
    prof->build_rows = build.NumRows();
    prof->probe_rows = probe.NumRows();
    prof->rows_out = out.NumRows();
    prof->capped = out.capped;
    prof->wall_micros = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - prof_start)
                            .count();
  }
  return out;
}

StatusOr<JoinCount> Executor::CountJoin(const Query& query,
                                        const Intermediate& left,
                                        const Intermediate& right) const {
  obs::SpanTimer span(obs::TraceStage::kExecJoin);
  const bool build_left = left.NumRows() <= right.NumRows();
  const Intermediate& build = build_left ? left : right;
  const Intermediate& probe = build_left ? right : left;
  BALSA_ASSIGN_OR_RETURN(std::vector<JoinPredicate> oriented,
                         OrientedJoinPredicates(query, build, probe));
  JoinCount count;
  count.capped = left.capped || right.capped;
  ForEachJoinPair(snapshot_, query, build, probe, oriented,
                  [&](uint32_t, size_t) {
                    if (++count.rows >= options_.row_cap) {
                      count.capped = true;
                      return true;
                    }
                    return false;
                  });
  return count;
}

StatusOr<Intermediate> Executor::Execute(const Query& query, const Plan& plan,
                                         int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  if (node_idx < 0) return Status::InvalidArgument("empty plan");
  return ExecuteNode(query, plan, node_idx, nullptr);
}

StatusOr<Intermediate> Executor::ExecuteProfiled(
    const Query& query, const Plan& plan, ExecutionProfile* profile) const {
  const int root = plan.root();
  if (root < 0) return Status::InvalidArgument("empty plan");
  if (!options_.profile || profile == nullptr) {
    if (profile != nullptr) *profile = ExecutionProfile{};
    return ExecuteNode(query, plan, root, nullptr);
  }
  *profile = ExecutionProfile{};
  profile->nodes.resize(static_cast<size_t>(plan.num_nodes()));
  const auto start = std::chrono::steady_clock::now();
  auto result = ExecuteNode(query, plan, root, profile);
  profile->total_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  return result;
}

StatusOr<Intermediate> Executor::ExecuteNode(const Query& query,
                                             const Plan& plan, int node_idx,
                                             ExecutionProfile* profile) const {
  const PlanNode& n = plan.node(node_idx);
  NodeProfile* prof =
      profile != nullptr ? &profile->nodes[static_cast<size_t>(node_idx)]
                         : nullptr;
  if (!n.is_join) {
    auto out = Scan(query, n.relation, prof);
    if (prof != nullptr && out.ok()) prof->node_idx = node_idx;
    return out;
  }
  BALSA_ASSIGN_OR_RETURN(Intermediate left,
                         ExecuteNode(query, plan, n.left, profile));
  BALSA_ASSIGN_OR_RETURN(Intermediate right,
                         ExecuteNode(query, plan, n.right, profile));
  auto out = Join(query, left, right, prof);
  if (prof != nullptr && out.ok()) prof->node_idx = node_idx;
  return out;
}

}  // namespace balsa
