// A batched inference service over the value network, mirroring Balsa's
// batched V(query, plan) scoring of beam-search frontiers (§6): a planning
// thread hands ScoreBatch() one whole frontier, and the service runs the
// forward pass on that thread, in chunks of at most max_batch_size items.
// The service owns no thread and no lock — it is a chunking loop plus
// lock-free counters, so any number of planning threads may score at once.
//
// Determinism: the batched nn kernels make every item's score bitwise
// independent of the rest of the forward batch (see nn::AddMatMul), so the
// chunk size never changes any result.
//
// The network pointer is borrowed; callers must not train the network while
// requests are in flight (the agent plans and trains in distinct phases).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/value_network.h"
#include "src/obs/metrics.h"

namespace balsa {

struct InferenceServiceOptions {
  /// Max (query, plan) items in one ForwardBatch call; larger requests are
  /// evaluated in chunks of this size.
  int max_batch_size = 128;
  /// When set, the service attaches its counters, the batch-size histogram,
  /// and the forward-pass duration histogram under metrics_prefix.
  /// Borrowed; must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "runtime.inference";
};

class InferenceService {
 public:
  explicit InferenceService(const ValueNetwork* network,
                            InferenceServiceOptions options = {});

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Predicted labels (original units), one per plan, computed on the
  /// calling thread. Thread-safe: ForwardBatch is const.
  std::vector<double> ScoreBatch(
      const nn::Vec& query,
      const std::vector<const nn::TreeSample*>& plans);

  struct Stats {
    int64_t requests = 0;         // ScoreBatch calls
    int64_t items = 0;            // (query, plan) pairs scored
    int64_t forward_batches = 0;  // ForwardBatch calls issued
  };
  Stats stats() const;

  /// Items per ForwardBatch call. Same bucketing the registry exports.
  const obs::Log2Histogram& batch_items_histogram() const {
    return batch_items_;
  }
  /// Wall µs per ScoreBatch call (all chunks of one request).
  const obs::Log2Histogram& batch_serve_us_histogram() const {
    return batch_serve_us_;
  }

  const ValueNetwork* network() const { return network_; }

 private:
  const ValueNetwork* network_;
  InferenceServiceOptions options_;

  obs::Counter requests_;
  obs::Counter items_;
  obs::Counter forward_batches_;
  obs::Log2Histogram batch_items_;
  obs::Log2Histogram batch_serve_us_;
  /// Registry attachments (empty without options.metrics). Last member:
  /// detaches before the instruments die.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
