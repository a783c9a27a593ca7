#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "src/obs/export.h"

namespace balsa::obs {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A deterministic coin in [0, 1) drawn from `x`.
double UnitCoin(uint64_t x) {
  return static_cast<double>(SplitMix64(x) >> 11) * 0x1.0p-53;
}

/// Min-heap by latency: the top() is the cheapest retained tail entry —
/// the one a slower completion displaces.
bool LatencyGreater(const RetainedTrace& a, const RetainedTrace& b) {
  return a.latency_us > b.latency_us;
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kFingerprint: return "fingerprint";
    case TraceStage::kCacheLookup: return "cache_lookup";
    case TraceStage::kCoalesceWait: return "coalesce_wait";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kBeamSearch: return "beam_search";
    case TraceStage::kInference: return "inference";
    case TraceStage::kAdmit: return "admit";
    case TraceStage::kExecScan: return "exec_scan";
    case TraceStage::kExecJoin: return "exec_join";
    case TraceStage::kReanalyze: return "reanalyze";
    case TraceStage::kCount: break;
  }
  return "unknown";
}

const char* RetainReasonName(RetainReason reason) {
  switch (reason) {
    case RetainReason::kTopK: return "top_k";
    case RetainReason::kOutcome: return "outcome";
    case RetainReason::kReservoir: return "reservoir";
  }
  return "unknown";
}

Trace::Trace(uint64_t id, std::chrono::steady_clock::time_point start)
    : id_(id), start_(start) {}

void Trace::AddSpan(TraceStage stage, double start_us, double duration_us) {
  MutexLock lock(mu_);
  spans_.push_back({stage, start_us, duration_us});
}

std::vector<TraceSpan> Trace::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

int Trace::NumDistinctStages() const {
  MutexLock lock(mu_);
  std::unordered_set<int> stages;
  for (const TraceSpan& span : spans_) {
    stages.insert(static_cast<int>(span.stage));
  }
  return static_cast<int>(stages.size());
}

bool Trace::HasStage(TraceStage stage) const {
  MutexLock lock(mu_);
  for (const TraceSpan& span : spans_) {
    if (span.stage == stage) return true;
  }
  return false;
}

double Trace::SpanUnionMicros(double clip_end_us) const {
  std::vector<TraceSpan> spans = this->spans();
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    const double begin = std::max(span.start_us, 0.0);
    const double end = std::min(span.start_us + span.duration_us, clip_end_us);
    if (end > begin) intervals.emplace_back(begin, end);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cover_end = 0;
  for (const auto& [begin, end] : intervals) {
    if (end <= cover_end) continue;
    total += end - std::max(begin, cover_end);
    cover_end = end;
  }
  return total;
}

void Trace::SetLeaderTraceId(uint64_t id) {
  MutexLock lock(mu_);
  leader_trace_id_ = id;
}

uint64_t Trace::leader_trace_id() const {
  MutexLock lock(mu_);
  return leader_trace_id_;
}

std::string Trace::ToString() const {
  std::vector<TraceSpan> spans = this->spans();
  std::string out = "trace #" + std::to_string(id_) + " (" +
                    std::to_string(spans.size()) + " spans)\n";
  char line[128];
  for (const TraceSpan& span : spans) {
    std::snprintf(line, sizeof(line), "  %-14s +%10.1fus  %10.1fus\n",
                  TraceStageName(span.stage), span.start_us,
                  span.duration_us);
    out += line;
  }
  return out;
}

double RetainedTrace::unattributed_us() const {
  const double covered =
      trace != nullptr ? trace->SpanUnionMicros(latency_us) : 0.0;
  return std::max(latency_us - covered, 0.0);
}

RequestTracer::RequestTracer(RequestTracerOptions options)
    : options_(options) {
  if (options_.top_k < 1) options_.top_k = 1;
  if (options_.reservoir_size < 0) options_.reservoir_size = 0;
  if (options_.max_outcomes < 0) options_.max_outcomes = 0;
  const int every = options_.sample_every;
  sample_pow2_ = every > 0 && (every & (every - 1)) == 0;
  sample_mask_ = sample_pow2_ ? static_cast<uint64_t>(every) - 1 : 0;
  top_k_.reserve(static_cast<size_t>(options_.top_k));
  reservoir_.reserve(static_cast<size_t>(options_.reservoir_size));
}

std::shared_ptr<Trace> RequestTracer::NewTrace(const Request& request) {
  traces_started_.Inc();
  return std::make_shared<Trace>(request.id, request.start);
}

RequestTracer::Request RequestTracer::Begin() {
  Request request;
  request.start = std::chrono::steady_clock::now();
  const size_t stripe = ThreadStripe();
  const uint64_t k =
      arrivals_[stripe].n.fetch_add(1, std::memory_order_relaxed) + 1;
  request.id = k * static_cast<uint64_t>(kThreadStripes) + stripe;
  if (options_.sample_every <= 0 || !Enabled()) return request;
  const bool sampled =
      sample_pow2_ ? ((k - 1) & sample_mask_) == 0
                   : (k - 1) % static_cast<uint64_t>(options_.sample_every) ==
                         0;
  if (sampled) request.trace = NewTrace(request);
  return request;
}

void RequestTracer::Arm(Request* request) {
  if (request->trace == nullptr && Enabled()) {
    request->trace = NewTrace(*request);
  }
}

void RequestTracer::RecordStageMicros(TraceStage stage, double micros,
                                      uint64_t exemplar_id) {
  stage_us_[static_cast<size_t>(stage)].Record(micros, exemplar_id);
}

uint64_t RequestTracer::Admit(Request* request,
                              const TraceCompletion& completion,
                              RetainReason reason) {
  const size_t top_k = static_cast<size_t>(options_.top_k);
  const size_t reservoir = static_cast<size_t>(options_.reservoir_size);
  MutexLock lock(mu_);
  // Re-checks under the lock; a rejected request allocates nothing.
  switch (reason) {
    case RetainReason::kOutcome:
      if (options_.max_outcomes == 0) return 0;
      break;
    case RetainReason::kTopK:
      // Another completion may have raised the floor past this one since
      // the relaxed pre-check.
      if (top_k_.size() >= top_k &&
          completion.latency_us <= top_k_.front().latency_us) {
        return 0;
      }
      break;
    case RetainReason::kReservoir:
      if (reservoir_.size() >= reservoir) {
        // Complete kept this request with probability min(1, cap / n) on
        // its stripe's arrival index n; thin that to the textbook cap / N
        // over all N arrivals so far. On one thread N == n and this always
        // keeps.
        const uint64_t n = request->id / kThreadStripes;
        const double keep =
            static_cast<double>(std::max<uint64_t>(n, reservoir));
        const double total = static_cast<double>(requests());
        if (UnitCoin(options_.seed ^ ~request->id) * total >= keep) return 0;
      }
      break;
  }

  if (request->trace == nullptr) request->trace = NewTrace(*request);
  RetainedTrace entry;
  entry.trace = request->trace;
  entry.trace_id = request->id;
  entry.latency_us = completion.latency_us;
  entry.outcome = completion.outcome;
  entry.fingerprint = completion.fingerprint;
  entry.query_name = std::string(completion.query_name);
  entry.stats_version = completion.stats_version;
  entry.data_epoch = completion.data_epoch;
  entry.error = completion.error;
  entry.capped = completion.capped;
  entry.reason = reason;
  entry.leader_trace_id = request->trace->leader_trace_id();
  entry.plan_summary = completion.plan_summary;
  entry.rows_out = completion.rows_out;
  entry.exec_us = completion.exec_us;

  switch (reason) {
    case RetainReason::kOutcome:
      outcomes_.push_back(std::move(entry));
      while (outcomes_.size() > static_cast<size_t>(options_.max_outcomes)) {
        outcomes_.pop_front();
        evicted_.Inc();
      }
      break;
    case RetainReason::kTopK:
      if (top_k_.size() >= top_k) {
        std::pop_heap(top_k_.begin(), top_k_.end(), LatencyGreater);
        top_k_.pop_back();
        evicted_.Inc();
      }
      top_k_.push_back(std::move(entry));
      std::push_heap(top_k_.begin(), top_k_.end(), LatencyGreater);
      if (top_k_.size() >= top_k) {
        top_k_floor_.store(top_k_.front().latency_us,
                           std::memory_order_relaxed);
      }
      break;
    case RetainReason::kReservoir:
      if (reservoir_.size() < reservoir) {
        reservoir_.push_back(std::move(entry));
      } else {
        const size_t slot = static_cast<size_t>(
            SplitMix64(options_.seed ^ (request->id * 0x9E3779B97F4A7C15ULL)) %
            reservoir);
        reservoir_[slot] = std::move(entry);
        evicted_.Inc();
      }
      break;
  }
  retained_.Inc();
  return request->id;
}

uint64_t RequestTracer::Complete(Request* request,
                                 const TraceCompletion& completion) {
  if (!Enabled()) return 0;
  if (completion.error || completion.capped) {
    return Admit(request, completion, RetainReason::kOutcome);
  }
  // Tail check first: the floor is -1 until the heap fills, so early
  // completions all qualify.
  if (completion.latency_us > top_k_floor_.load(std::memory_order_relaxed)) {
    const uint64_t id = Admit(request, completion, RetainReason::kTopK);
    if (id != 0) return id;
  }
  // Ordinary completion: the reservoir. The coin is a pure function of
  // (seed, request id) so replays are reproducible, and its n is the
  // request's arrival index on its own stripe, so deciding reads no shared
  // counter (Admit thins the rare keeps to the global rate).
  const uint64_t cap = static_cast<uint64_t>(options_.reservoir_size);
  if (cap == 0) return 0;
  const uint64_t n = request->id / kThreadStripes;
  if (n > cap &&
      UnitCoin(options_.seed ^ request->id) * static_cast<double>(n) >=
          static_cast<double>(cap)) {
    return 0;
  }
  return Admit(request, completion, RetainReason::kReservoir);
}

void RequestTracer::PromoteCapped(Request* request,
                                  const TraceCompletion& completion) {
  if (!Enabled()) return;
  {
    MutexLock lock(mu_);
    for (RetainedTrace& entry : outcomes_) {
      if (entry.trace_id != request->id) continue;
      entry.capped = true;
      entry.plan_summary = completion.plan_summary;
      entry.rows_out = completion.rows_out;
      entry.exec_us = completion.exec_us;
      return;
    }
    // Held as tail or baseline: move it to the outcome ring, where slower
    // requests cannot displace it.
    auto unlink = [id = request->id](std::vector<RetainedTrace>* entries) {
      for (RetainedTrace& entry : *entries) {
        if (entry.trace_id != id) continue;
        entry = std::move(entries->back());
        entries->pop_back();
        return true;
      }
      return false;
    };
    if (unlink(&top_k_)) {
      std::make_heap(top_k_.begin(), top_k_.end(), LatencyGreater);
      top_k_floor_.store(-1, std::memory_order_relaxed);  // no longer full
    } else {
      unlink(&reservoir_);
    }
  }
  TraceCompletion capped = completion;
  capped.capped = true;
  Admit(request, capped, RetainReason::kOutcome);
}

int64_t RequestTracer::requests() const {
  int64_t total = 0;
  for (const ArrivalCounter& arrivals : arrivals_) {
    total += static_cast<int64_t>(arrivals.n.load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<RetainedTrace> RequestTracer::Retained() const {
  MutexLock lock(mu_);
  std::vector<RetainedTrace> out;
  out.reserve(top_k_.size() + outcomes_.size() + reservoir_.size());
  out.insert(out.end(), top_k_.begin(), top_k_.end());
  out.insert(out.end(), outcomes_.begin(), outcomes_.end());
  out.insert(out.end(), reservoir_.begin(), reservoir_.end());
  return out;
}

bool RequestTracer::FindTrace(uint64_t trace_id, RetainedTrace* out) const {
  MutexLock lock(mu_);
  auto scan = [&](const auto& entries) {
    for (const RetainedTrace& entry : entries) {
      if (entry.trace_id != trace_id) continue;
      *out = entry;
      return true;
    }
    return false;
  };
  return scan(top_k_) || scan(outcomes_) || scan(reservoir_);
}

bool RequestTracer::MaxRetained(RetainedTrace* out) const {
  std::vector<RetainedTrace> all = Retained();
  if (all.empty()) return false;
  *out = *std::max_element(all.begin(), all.end(),
                           [](const RetainedTrace& a, const RetainedTrace& b) {
                             return a.latency_us < b.latency_us;
                           });
  return true;
}

RequestTracer::Stats RequestTracer::stats() const {
  Stats stats;
  stats.requests = requests();
  stats.evicted = evicted_.Value();
  MutexLock lock(mu_);
  stats.retained_top_k = static_cast<int64_t>(top_k_.size());
  stats.retained_outcome = static_cast<int64_t>(outcomes_.size());
  stats.retained_reservoir = static_cast<int64_t>(reservoir_.size());
  return stats;
}

std::string RequestTracer::RetainedJson(const RetainedTrace& entry) {
  char buf[96];
  std::string out = "{";
  out += "\"trace_id\":" + std::to_string(entry.trace_id);
  std::snprintf(buf, sizeof(buf), ",\"latency_us\":%.1f", entry.latency_us);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"unattributed_us\":%.1f",
                entry.unattributed_us());
  out += buf;
  out += ",\"outcome\":\"" + JsonEscape(entry.outcome) + '"';
  out += ",\"reason\":\"";
  out += RetainReasonName(entry.reason);
  out += '"';
  std::snprintf(buf, sizeof(buf), ",\"fingerprint\":\"%016llx\"",
                static_cast<unsigned long long>(entry.fingerprint));
  out += buf;
  out += ",\"query\":\"" + JsonEscape(entry.query_name) + '"';
  out += ",\"stats_version\":" + std::to_string(entry.stats_version);
  out += ",\"data_epoch\":" + std::to_string(entry.data_epoch);
  out += ",\"leader_trace_id\":" + std::to_string(entry.leader_trace_id);
  out += ",\"error\":";
  out += entry.error ? "true" : "false";
  out += ",\"capped\":";
  out += entry.capped ? "true" : "false";
  if (entry.capped) {
    out += ",\"plan\":\"" + JsonEscape(entry.plan_summary) + '"';
    std::snprintf(buf, sizeof(buf), ",\"rows_out\":%lld,\"exec_us\":%.1f",
                  static_cast<long long>(entry.rows_out), entry.exec_us);
    out += buf;
  }
  out += ",\"spans\":[";
  const std::vector<TraceSpan> spans =
      entry.trace != nullptr ? entry.trace->spans() : std::vector<TraceSpan>{};
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "\"start_us\":%.1f,\"dur_us\":%.1f",
                  spans[i].start_us, spans[i].duration_us);
    out += "{\"stage\":\"";
    out += TraceStageName(spans[i].stage);
    out += "\",";
    out += buf;
    out += '}';
  }
  out += "]}";
  return out;
}

std::string RequestTracer::ToJsonl() const {
  std::vector<RetainedTrace> all = Retained();
  std::sort(all.begin(), all.end(),
            [](const RetainedTrace& a, const RetainedTrace& b) {
              return a.latency_us > b.latency_us;
            });
  std::string out;
  for (const RetainedTrace& entry : all) {
    out += RetainedJson(entry);
    out += '\n';
  }
  return out;
}

Status RequestTracer::WriteJsonlFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string jsonl = ToJsonl();
  const size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != jsonl.size() || !closed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

std::vector<Registration> RequestTracer::AttachTo(MetricsRegistry* registry,
                                                  const std::string& prefix) {
  std::vector<Registration> registrations;
  registrations.push_back(
      registry->AttachCounter(prefix + ".traces", &traces_started_));
  registrations.push_back(registry->AttachCounter(
      prefix + ".flight_recorder.retained", &retained_));
  registrations.push_back(registry->AttachCounter(
      prefix + ".flight_recorder.evicted", &evicted_));
  for (int i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    registrations.push_back(registry->AttachHistogram(
        Labeled(prefix + ".stage_us", {{"stage", TraceStageName(stage)}}),
        &stage_us_[static_cast<size_t>(i)]));
  }
  return registrations;
}

namespace {
thread_local const TraceContext* t_current_context = nullptr;
}  // namespace

const TraceContext* CurrentTraceContext() { return t_current_context; }

TraceContext CurrentTraceContextCopy() {
  const TraceContext* current = t_current_context;
  return current == nullptr ? TraceContext{} : *current;
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : context_(std::move(context)) {
  if (!context_.active()) return;
  previous_ = t_current_context;
  t_current_context = &context_;
  installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) t_current_context = previous_;
}

}  // namespace balsa::obs
