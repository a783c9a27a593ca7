#include "src/stats/card_oracle.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

namespace balsa {

bool CardOracle::TryGet(uint64_t key, uint64_t epoch, TrueCard* out) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  if (it->second.epoch != epoch) {
    // Older than our snapshot: data mutated since it was measured — lazily
    // reclaim the slot. Newer: a concurrent reader already recomputed it
    // against fresher data than our snapshot; miss, but keep their work.
    if (it->second.epoch < epoch) shard.map.erase(it);
    return false;
  }
  *out = it->second.card;
  return true;
}

void CardOracle::Put(uint64_t key, TrueCard card, uint64_t epoch) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.map.emplace(key, Entry{card, epoch});
  } else if (it->second.epoch < epoch ||
             (it->second.epoch == epoch && it->second.card.capped &&
              !card.capped)) {
    it->second = Entry{card, epoch};
  }
}

Status CardOracle::ValidateSet(const Query& query, TableSet set) {
  if (query.id() < 0) {
    return Status::InvalidArgument("query " + query.name() + " has no id");
  }
  if (set.empty()) return Status::InvalidArgument("empty table set");
  if (!query.AllTables().ContainsAll(set)) {
    return Status::OutOfRange("table set " + set.ToString() +
                              " is not in query " + query.name());
  }
  return Status::OK();
}

StatusOr<TrueCard> CardOracle::Cardinality(const Query& query, TableSet set) {
  // Fast path: a hit at the current epoch needs no snapshot pin, and no
  // validation either (only valid sets are ever memoized).
  TrueCard cached;
  if (query.id() >= 0 &&
      TryGet(Key(query.id(), set), data_epoch(), &cached)) {
    return cached;
  }
  BALSA_RETURN_IF_ERROR(ValidateSet(query, set));
  // Pin a snapshot before reading any data: if an ingest batch lands while
  // we execute, our results are stamped with the pinned (pre-mutation)
  // epoch and expire with it.
  Executor executor(db_->GetSnapshot(), exec_options_);
  std::vector<TrueCard> card(1);
  BALSA_RETURN_IF_ERROR(Measure(executor, query, {set}, &card));
  return card[0];
}

StatusOr<std::vector<TrueCard>> CardOracle::PlanCardinalities(
    const Query& query, const Plan& plan) {
  std::vector<TrueCard> out(plan.num_nodes());
  // Fast path: every node's set already cached at the current epoch.
  const uint64_t epoch_now = data_epoch();
  bool all_cached = true;
  for (int i = 0; i < plan.num_nodes() && all_cached; ++i) {
    all_cached = TryGet(Key(query.id(), plan.node(i).tables), epoch_now,
                        &out[i]);
  }
  if (all_cached) return out;
  std::vector<TableSet> sets;
  for (const PlanNode& node : plan.nodes()) {
    BALSA_RETURN_IF_ERROR(ValidateSet(query, node.tables));
    sets.push_back(node.tables);
  }
  // One snapshot for the whole plan: every node's cardinality describes the
  // same publication epoch even while writers ingest.
  Executor executor(db_->GetSnapshot(), exec_options_);
  BALSA_RETURN_IF_ERROR(Measure(executor, query, sets, &out));
  return out;
}

Status CardOracle::Measure(const Executor& executor, const Query& query,
                           const std::vector<TableSet>& sets,
                           std::vector<TrueCard>* cards) {
  const uint64_t epoch = executor.snapshot().epoch();
  const int qid = query.id();
  // An uncached set, with its smallest-first connected join order as
  // prefixes: prefix[t] joins the first t + 1 relations of the order. A
  // disconnected set's order stops short of the set where no relation
  // connects.
  struct Job {
    size_t index;
    std::vector<int> order;
    std::vector<TableSet> prefix;
  };
  std::vector<Job> jobs;
  for (size_t i = 0; i < sets.size(); ++i) {
    if (!TryGet(Key(qid, sets[i]), epoch, &(*cards)[i])) {
      jobs.push_back({i, {}, {}});
    }
  }
  if (jobs.empty()) return Status::OK();

  // Scan each relation once per call.
  std::vector<Intermediate> scans(query.num_relations());
  std::vector<bool> scanned(query.num_relations(), false);
  for (Job& job : jobs) {
    std::vector<std::pair<int64_t, int>> bases;  // (filtered rows, rel)
    for (int rel : sets[job.index]) {
      if (!scanned[rel]) {
        BALSA_ASSIGN_OR_RETURN(Intermediate scan, executor.Scan(query, rel));
        Put(Key(qid, TableSet::Single(rel)),
            {static_cast<double>(scan.NumRows()), scan.capped}, epoch);
        scans[rel] = std::move(scan);
        scanned[rel] = true;
      }
      bases.push_back({scans[rel].NumRows(), rel});
    }
    // Start from the smallest relation; grow by the smallest connected one.
    std::sort(bases.begin(), bases.end());
    TableSet done = TableSet::Single(bases[0].second);
    job.order = {bases[0].second};
    job.prefix = {done};
    while (done != sets[job.index]) {
      int next = -1;
      for (const auto& [rows, rel] : bases) {
        if (!done.Contains(rel) &&
            query.CanJoin(done, TableSet::Single(rel))) {
          next = rel;
          break;
        }
      }
      if (next < 0) break;
      done = done.With(next);
      job.order.push_back(next);
      job.prefix.push_back(done);
    }
  }

  // The greedy order is prefix-closed: a prefix of one set's order is the
  // whole order of that prefix's own set. So a set can resume from the
  // longest prefix of its order that an earlier set already joined. Plan
  // which prefix each set resumes from, and after which set (its last
  // user) each resumed-from intermediate can be released.
  std::unordered_map<uint64_t, size_t> last_use;  // prefix bits -> job
  auto resume_point = [](const Job& job, auto&& available) {
    for (size_t t = job.prefix.size() - 1; t >= 1; --t) {
      if (available(job.prefix[t].bits())) return t;
    }
    return size_t{0};
  };
  {
    std::unordered_set<uint64_t> joined;
    for (size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = jobs[j];
      if (joined.count(sets[job.index].bits())) continue;  // a memo hit
      const size_t from = resume_point(
          job, [&](uint64_t bits) { return joined.count(bits) > 0; });
      if (from > 0) last_use[job.prefix[from].bits()] = j;
      for (size_t t = from + 1; t < job.prefix.size(); ++t) {
        joined.insert(job.prefix[t].bits());
      }
    }
  }

  // A joined prefix carries only the columns of its relations that join a
  // relation outside it: no later join reads the others. (All of them when
  // none does, so that the intermediate still has a row count.)
  auto live = [&query](TableSet prefix) {
    TableSet keep;
    for (int rel : prefix) {
      if (!prefix.ContainsAll(query.Neighbors(rel))) keep = keep.With(rel);
    }
    return keep.empty() ? prefix : keep;
  };

  // Run the sets in order. An uncapped intermediate with a later user is
  // kept until that user is done; the last join of a set nobody extends
  // only counts its rows. Capped intermediates are never kept: a later set
  // through them redoes the joins and caps at the same step.
  std::unordered_map<uint64_t, Intermediate> kept;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    TrueCard& card = (*cards)[job.index];
    if (!TryGet(Key(qid, sets[job.index]), epoch, &card)) {
      num_executions_.fetch_add(1, std::memory_order_relaxed);
      const size_t from = resume_point(
          job, [&](uint64_t bits) { return kept.count(bits) > 0; });
      const Intermediate* current =
          from > 0 ? &kept.at(job.prefix[from].bits())
                   : &scans[job.order[0]];
      Intermediate owned;  // `current` when no later set extends it
      const bool connected = job.prefix.back() == sets[job.index];
      bool measured = false;
      for (size_t t = from + 1; t < job.prefix.size(); ++t) {
        const uint64_t key = Key(qid, job.prefix[t]);
        const Intermediate& next = scans[job.order[t]];
        const bool last = connected && t + 1 == job.prefix.size();
        const bool extended = last_use.count(job.prefix[t].bits()) > 0;
        measured = last && TryGet(key, epoch, &card);
        if (measured) break;
        num_executions_.fetch_add(1, std::memory_order_relaxed);
        if (last && !extended) {
          BALSA_ASSIGN_OR_RETURN(JoinCount count,
                                 executor.CountJoin(query, *current, next));
          card = {static_cast<double>(count.rows), count.capped};
          Put(key, card, epoch);
          measured = true;
          break;
        }
        BALSA_ASSIGN_OR_RETURN(
            Intermediate joined,
            executor.JoinKeeping(query, *current, next, live(job.prefix[t])));
        const TrueCard step{static_cast<double>(joined.NumRows()),
                            joined.capped};
        Put(key, step, epoch);
        if (joined.capped) {
          // Everything above a capped intermediate is also capped; don't
          // keep joining a truncated result.
          card = step;
          measured = true;
          break;
        }
        if (extended) {
          current = &(kept[job.prefix[t].bits()] = std::move(joined));
        } else {
          owned = std::move(joined);
          current = &owned;
        }
      }
      if (!measured) {
        if (!connected) {
          return Status::InvalidArgument(
              "table set " + sets[job.index].ToString() +
              " is not join-connected in query " + query.name());
        }
        // `current` is the materialized join of the full set (don't re-read
        // the memo here: an epoch advance mid-computation would expire our
        // own Put).
        card = {static_cast<double>(current->NumRows()), current->capped};
      }
    }
    for (auto it = kept.begin(); it != kept.end();) {
      it = last_use.at(it->first) <= j ? kept.erase(it) : std::next(it);
    }
  }
  return Status::OK();
}

}  // namespace balsa
