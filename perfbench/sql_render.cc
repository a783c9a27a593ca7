#include "perfbench/sql_render.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace balsa::perfbench {

namespace {

void Shuffle(std::vector<int>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

uint64_t Mix(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::string RenderSql(const Schema& schema, const Query& query, Rng* rng,
                      int literal_domain) {
  const int n = query.num_relations();
  // Aliases are a letter plus digits, so they can never collide with a
  // keyword (AS, WHERE, AND, IN) the parser looks for.
  std::vector<std::string> alias(static_cast<size_t>(n));
  std::unordered_set<std::string> used;
  for (int r = 0; r < n; ++r) {
    const std::string& table =
        schema.table(query.relations()[r].table_idx).name;
    std::string candidate;
    do {
      candidate = std::string(1, table[0]) +
                  std::to_string(rng->Uniform(1000));
    } while (!used.insert(candidate).second);
    alias[static_cast<size_t>(r)] = candidate;
  }
  auto column = [&](const ColumnRef& ref) {
    int table = query.relations()[ref.relation].table_idx;
    return alias[static_cast<size_t>(ref.relation)] + "." +
           schema.table(table).columns[static_cast<size_t>(ref.column)].name;
  };
  auto offset = [&]() -> int64_t {
    return literal_domain > 1
               ? static_cast<int64_t>(
                     rng->Uniform(static_cast<uint64_t>(literal_domain)))
               : 0;
  };

  std::vector<int> from(static_cast<size_t>(n));
  std::iota(from.begin(), from.end(), 0);
  Shuffle(&from, rng);
  std::string sql = "SELECT * FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += schema.table(query.relations()[from[i]].table_idx).name + " " +
           alias[static_cast<size_t>(from[i])];
  }

  std::vector<std::string> predicates;
  for (const JoinPredicate& join : query.joins()) {
    bool swap = rng->Bernoulli(0.5);
    predicates.push_back(column(swap ? join.right : join.left) + " = " +
                         column(swap ? join.left : join.right));
  }
  for (const FilterPredicate& filter : query.filters()) {
    const int64_t shift = offset();
    std::string text = column(filter.col) + " " + PredOpName(filter.op) + " ";
    if (filter.op == PredOp::kIn) {
      text += "(";
      for (size_t v = 0; v < filter.in_values.size(); ++v) {
        if (v > 0) text += ", ";
        text += std::to_string(filter.in_values[v] + shift);
      }
      text += ")";
    } else {
      text += std::to_string(filter.value + shift);
    }
    predicates.push_back(std::move(text));
  }
  std::vector<int> order(predicates.size());
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, rng);
  for (size_t i = 0; i < order.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += predicates[static_cast<size_t>(order[i])];
  }
  return sql + ";";
}

RequestStream::RequestStream(const Schema* schema,
                             std::vector<const Query*> queries,
                             RequestStreamOptions options)
    : schema_(schema),
      queries_(std::move(queries)),
      options_(options),
      popularity_(queries_.size(), kZipfS) {}

RequestStream::Request RequestStream::Make(int64_t i) const {
  Rng rng(Mix(options_.seed, static_cast<uint64_t>(i)));
  Request request;
  request.query_index = static_cast<int>(popularity_.Sample(&rng));
  request.sql = RenderSql(*schema_, *queries_[request.query_index], &rng,
                          options_.literal_domain);
  return request;
}

}  // namespace balsa::perfbench
