#include "src/runtime/inference_service.h"

#include <algorithm>
#include <chrono>

#include "src/obs/trace.h"

namespace balsa {

InferenceService::InferenceService(const ValueNetwork* network,
                                   InferenceServiceOptions options)
    : network_(network), options_(options) {
  options_.max_batch_size = std::max(1, options_.max_batch_size);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics;
    const std::string& p = options_.metrics_prefix;
    registrations_.push_back(reg->AttachCounter(p + ".requests", &requests_));
    registrations_.push_back(reg->AttachCounter(p + ".items", &items_));
    registrations_.push_back(
        reg->AttachCounter(p + ".forward_batches", &forward_batches_));
    registrations_.push_back(
        reg->AttachHistogram(p + ".batch_items", &batch_items_));
    registrations_.push_back(
        reg->AttachHistogram(p + ".batch_serve_us", &batch_serve_us_));
  }
}

std::vector<double> InferenceService::ScoreBatch(
    const nn::Vec& query, const std::vector<const nn::TreeSample*>& plans) {
  if (plans.empty()) return {};
  // On a traced planning thread this records one kInference span per
  // ScoreBatch: the forward pass on this thread. Inert otherwise.
  obs::SpanTimer span(obs::TraceStage::kInference);
  const auto start = std::chrono::steady_clock::now();
  requests_.Inc();

  const int total = static_cast<int>(plans.size());
  std::vector<double> scores;
  scores.reserve(plans.size());
  for (int lo = 0; lo < total; lo += options_.max_batch_size) {
    const int hi = std::min(total, lo + options_.max_batch_size);
    std::vector<const nn::TreeSample*> chunk_plans(plans.begin() + lo,
                                                   plans.begin() + hi);
    std::vector<double> chunk = network_->ForwardBatch(query, chunk_plans);
    scores.insert(scores.end(), chunk.begin(), chunk.end());
    forward_batches_.Inc();
    batch_items_.Record(hi - lo);
  }

  items_.Inc(total);
  batch_serve_us_.Record(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  return scores;
}

InferenceService::Stats InferenceService::stats() const {
  Stats stats;
  stats.requests = requests_.Value();
  stats.items = items_.Value();
  stats.forward_batches = forward_batches_.Value();
  return stats;
}

}  // namespace balsa
