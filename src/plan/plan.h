// Physical plan trees, arena-allocated. A Plan owns a flat vector of nodes;
// children are referenced by index, so copying/hashing is cheap and there is
// no per-node heap churn.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/plan/query_graph.h"
#include "src/util/table_set.h"

namespace balsa {

enum class ScanOp : uint8_t { kSeqScan = 0, kIndexScan = 1 };
enum class JoinOp : uint8_t {
  kHashJoin = 0,
  kMergeJoin = 1,
  kIndexNLJoin = 2,  // inner (right) side probed via index; right must be a scan
  kNLJoin = 3,       // naive nested loop
};

constexpr int kNumScanOps = 2;
constexpr int kNumJoinOps = 4;

const char* ScanOpName(ScanOp op);
const char* JoinOpName(JoinOp op);

struct PlanNode {
  bool is_join = false;
  JoinOp join_op = JoinOp::kHashJoin;
  ScanOp scan_op = ScanOp::kSeqScan;
  int relation = -1;       // leaf only: index into the query's relation list
  int left = -1;           // join only: arena index of outer/build child
  int right = -1;          // join only: arena index of inner/probe child
  TableSet tables;         // relations covered by this subtree
};

/// An arena of plan nodes plus a designated root. May also hold a forest
/// (several roots) while a search state is under construction.
class Plan {
 public:
  Plan() = default;

  /// Adds a leaf scan of `relation`; returns its arena index.
  int AddScan(int relation, ScanOp op);

  /// Adds a join of two existing nodes; returns its arena index.
  int AddJoin(int left, int right, JoinOp op);

  int root() const { return root_; }
  void set_root(int root) { root_ = root; }

  const PlanNode& node(int idx) const { return nodes_[idx]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<PlanNode>& nodes() const { return nodes_; }

  bool empty() const { return nodes_.empty(); }
  TableSet RootTables() const {
    return root_ < 0 ? TableSet() : nodes_[root_].tables;
  }

  int NumJoins() const;

  /// Structural fingerprint of the subtree at `idx` (or the root): operator
  /// kinds, child order, and leaf relations. Two plans with equal
  /// fingerprints execute identically.
  uint64_t Fingerprint(int idx = -1) const;

  /// True if every join's right child is a leaf (left-deep tree).
  bool IsLeftDeep(int idx = -1) const;

  /// True if some join has two join children (a bushy tree).
  bool IsBushy() const { return root_ >= 0 && !IsLeftDeepOrRightDeep(root_); }

  /// Max depth of join nesting.
  int Depth(int idx = -1) const;

  /// Pretty-prints with relation aliases from `query`.
  std::string ToString(const Query& query, int idx = -1) const;

  /// Validates structure: tree-shaped, table sets consistent, index-NL right
  /// children are leaves.
  bool Validate() const;

  /// Counts operator usage over the whole tree.
  void CountOps(std::vector<int>* join_counts,
                std::vector<int>* scan_counts) const;

 private:
  bool IsLeftDeepOrRightDeep(int idx) const;
  std::vector<PlanNode> nodes_;
  int root_ = -1;
};

/// Builds a new plan joining `left` and `right` (each a complete tree) with
/// `op`. If `op` is kIndexNLJoin and the right tree is a single scan, the
/// inner scan is rewritten to an index scan (the probe path).
Plan ComposeJoin(const Plan& left, const Plan& right, JoinOp op);

/// Copies the subtree of `src` rooted at `idx` into a standalone plan.
Plan ExtractSubtree(const Plan& src, int idx);

}  // namespace balsa
