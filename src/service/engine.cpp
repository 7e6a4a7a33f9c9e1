#include "service/engine.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "service/stages.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace pslocal::service {

namespace {
const obs::Counter g_served("service.responses.served");
const obs::Counter g_served_cached("service.responses.cached");
const obs::Counter g_errors("service.responses.errors");
const obs::Counter g_batches("service.batches");
// End-to-end engine latency (total_ns) of every answered request, by
// outcome; "rejected" is deadline sheds and stop-time rejections.
const obs::Histogram g_total_hit("service.total_ns.hit");
const obs::Histogram g_total_miss("service.total_ns.miss");
const obs::Histogram g_total_error("service.total_ns.error");
const obs::Histogram g_total_rejected("service.total_ns.rejected");

const obs::Histogram& total_histogram(const Response& resp) {
  switch (resp.status) {
    case Response::Status::kOk:
      return resp.cache_hit ? g_total_hit : g_total_miss;
    case Response::Status::kError: return g_total_error;
    case Response::Status::kRejected: return g_total_rejected;
  }
  return g_total_rejected;
}
}  // namespace

ServiceEngine::ServiceEngine(EngineConfig config)
    : config_(config),
      sched_(config.scheduler != nullptr ? config.scheduler
                                         : &runtime::global_scheduler()),
      cache_(config.cache),
      graph_cache_(config.graph_cache_entries),
      sessions_(config.mutation_sessions) {
  if (config_.qos.enabled) {
    auto fq = std::make_unique<qos::FairQueue>(config_.qos,
                                               config_.queue_capacity);
    fair_queue_ = fq.get();
    queue_ = std::move(fq);
    const qos::TenantRegistry& reg = fair_queue_->registry();
    tenant_latency_.reserve(reg.size());
    for (std::size_t i = 0; i < reg.size(); ++i) {
      const std::string& name = reg.config(i).name;
      const std::string metric =
          "qos.latency_ns." + (name.empty() ? std::string("default") : name);
      tenant_latency_.emplace_back(metric.c_str());
    }
  } else {
    queue_ = std::make_unique<RequestQueue>(config_.queue_capacity);
  }
}

ServiceEngine::~ServiceEngine() { stop(); }

void ServiceEngine::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  const std::size_t lanes = sched_->thread_count();
  inflight_.reserve(lanes);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    lanes_.emplace_back([this, i] { lane_main(i); });
  answers_hits_.store(true, std::memory_order_release);
}

void ServiceEngine::stop(StopMode mode) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  answers_hits_.store(false, std::memory_order_release);
  if (mode == StopMode::kReject)
    reject_drained_.store(true, std::memory_order_release);
  queue_->shutdown();
  for (std::thread& lane : lanes_) lane.join();
  // Anything still queued was never dispatched (engine not started, or
  // raced the shutdown): answer it rather than leaving it unanswered.
  std::vector<Pending> stragglers;
  queue_->drain(stragglers);
  reject_all(stragglers, "shutdown");
}

ServiceEngine::Submitted ServiceEngine::submit(Request request) {
  // std::function needs a copyable target, so the promise is shared.
  auto promise = std::make_shared<std::promise<Response>>();
  const AdmissionVerdict verdict =
      submit(std::move(request), [promise](Response resp) {
        promise->set_value(std::move(resp));
      });
  Submitted out;
  out.admission = verdict.admission;
  out.retry_after_us = verdict.retry_after_us;
  if (out.admission == Admission::kAccepted)
    out.response = promise->get_future();
  return out;
}

AdmissionVerdict ServiceEngine::submit(Request request, Completion complete) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (request.instance_hash == 0 && request.instance != nullptr)
    request.instance_hash = hash_hypergraph(*request.instance);

  const RequestKind kind = request.kind;
  const std::uint64_t trace_id = request.trace_id;
  Pending pending;
  pending.request = std::move(request);
  pending.complete = std::move(complete);
  pending.submit_ns = now_ns();

  // A running engine answers a cached key here, on the submitting
  // thread, without a queue slot or a lane.  The peek counts nothing: a
  // refused hit is not served, and a miss is probed again (and counted)
  // by the lane that serves it.
  std::uint64_t key = 0;
  std::optional<std::string> hit;
  if (answers_hits_.load(std::memory_order_acquire)) {
    key = cache_key(pending.request);
    hit = cache_.peek(key);
  }
  const std::uint64_t admit_ns = now_ns();
  AdmissionVerdict verdict;
  if (!hit) {
    verdict = queue_->admit(std::move(pending));
  } else if (fair_queue_ != nullptr) {
    verdict = fair_queue_->admit_hit(pending);
  } else {
    verdict = {Admission::kAccepted, 0};
  }
  // Admission wait is the time submit() spent getting a verdict (lock
  // contention under load); queue depth at entry is how much work was
  // already ahead of a queued request.
  stages::record(stages::Stage::kAdmissionWait, kind, now_ns() - admit_ns,
                 trace_id);
  switch (verdict.admission) {
    case Admission::kAccepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (hit) {
        cache_.count_hit(key);
        stages::record(stages::Stage::kCacheProbe, kind,
                       admit_ns - pending.submit_ns, trace_id);
        Response resp;
        resp.key = key;
        resp.cache_hit = true;
        resp.result = std::move(*hit);
        count_served(pending, std::move(resp));
      } else {
        stages::record(stages::Stage::kQueueDepth, kind, queue_->depth(),
                       trace_id);
      }
      break;
    case Admission::kQueueFull:
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kShutdown:
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return verdict;
}

struct ServiceEngine::Outcome {
  std::string payload;
  std::string error;  // non-empty: the solver threw
  std::uint64_t compute_ns = 0;
};

void ServiceEngine::lane_main(std::size_t lane) {
  obs::set_thread_label(config_.name + ".lane" + std::to_string(lane));
  std::vector<Pending> popped;
  for (;;) {
    popped.clear();
    if (queue_->pop_batch(popped, 1) == 0) return;  // shutdown and empty
    Pending& pending = popped.front();
    pending.dispatch_ns = now_ns();
    stages::record(stages::Stage::kDispatchWait, pending.request.kind,
                   pending.dispatch_ns - pending.submit_ns,
                   pending.request.trace_id);
    if (reject_drained_.load(std::memory_order_acquire)) {
      reject_all(popped, "shutdown");
      continue;
    }
    if (fair_queue_ != nullptr && shed_if_expired(pending)) continue;
    dispatch_cycles_.fetch_add(1, std::memory_order_relaxed);
    serve(pending);
  }
}

bool ServiceEngine::shed_if_expired(Pending& pending) {
  // Deadline-aware shedding: a request that already blew its tenant's
  // deadline class gets a shed answer now instead of burning solver
  // time that cannot help it.  The net tier turns the response into a
  // kShedRetryAfter NACK carrying retry_after_us.
  if (pending.deadline_ns == 0 || pending.dispatch_ns <= pending.deadline_ns)
    return false;
  const qos::TenantConfig& cfg =
      fair_queue_->registry().config(pending.tenant);
  Response resp;
  resp.status = Response::Status::kRejected;
  resp.reason = "shed";
  resp.retry_after_us = cfg.deadline_ms * 1000;
  fair_queue_->record_deadline_shed(pending.tenant);
  shed_.fetch_add(1, std::memory_order_relaxed);
  shed_deadline_.fetch_add(1, std::memory_order_relaxed);
  finish(pending, std::move(resp));
  return true;
}

void ServiceEngine::serve(Pending& pending) {
  const Request& req = pending.request;
  const std::uint64_t key = cache_key(req);
  // Claim the key, or park on the lane already computing it.  The probe
  // below runs after the claim, so a compute that finished in between
  // has already filled the cache: one compute per key at any timing.
  const auto in_flight = [this, key] {
    return std::find_if(inflight_.begin(), inflight_.end(),
                        [key](const InFlight& f) { return f.key == key; });
  };
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto flight = in_flight();
    if (flight != inflight_.end()) {
      flight->parked.push_back(std::move(pending));
      return;
    }
    inflight_.push_back(InFlight{key, {}});
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  g_batches.add();

  Outcome outcome;
  const std::uint64_t probe_ns = now_ns();
  std::optional<std::string> hit = cache_.lookup(key);
  stages::record(stages::Stage::kCacheProbe, req.kind, now_ns() - probe_ns,
                 req.trace_id);
  if (hit) {
    outcome.payload = std::move(*hit);
  } else {
    // Adopt the request's wire trace context on the lane, so the solve
    // span nests under the client's root span even though it runs far
    // from the io loop that read the frame.
    obs::ScopedTraceContext trace_ctx(req.trace_id, req.parent_span_id);
    PSL_OBS_SPAN("service.solve");
    const std::uint64_t t0 = now_ns();
    try {
      // The compute is one region of one chunk on the engine's
      // scheduler: a pool runs it inline on this lane, and a test
      // scheduler can hold it there.
      sched_->run_chunks(1, 1, [&](runtime::ChunkRange) {
        outcome.payload =
            execute_request(req, *sched_, &graph_cache_, &sessions_);
      });
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    outcome.compute_ns = now_ns() - t0;
    stages::record(stages::Stage::kSolve, req.kind, outcome.compute_ns,
                   req.trace_id);
    if (outcome.error.empty()) cache_.insert(key, outcome.payload);
  }

  // Release the claim and take whatever parked on it meanwhile.
  std::vector<Pending> parked;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto flight = in_flight();
    parked = std::move(flight->parked);
    inflight_.erase(flight);
  }
  answer(pending, key, outcome, hit.has_value());
  for (Pending& p : parked) answer(p, key, outcome, true);
}

void ServiceEngine::answer(Pending& pending, std::uint64_t key,
                           const Outcome& outcome, bool cache_hit) {
  Response resp;
  resp.key = key;
  resp.queue_ns = pending.dispatch_ns - pending.submit_ns;
  if (!outcome.error.empty()) {
    resp.status = Response::Status::kError;
    resp.reason = outcome.error;
  } else {
    resp.status = Response::Status::kOk;
    resp.result = outcome.payload;
    resp.cache_hit = cache_hit;
    if (!cache_hit) resp.compute_ns = outcome.compute_ns;
  }
  count_served(pending, std::move(resp));
}

void ServiceEngine::count_served(Pending& pending, Response resp) {
  served_.fetch_add(1, std::memory_order_relaxed);
  g_served.add();
  if (resp.status == Response::Status::kError) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    g_errors.add();
  }
  if (resp.cache_hit) {
    served_cached_.fetch_add(1, std::memory_order_relaxed);
    g_served_cached.add();
  }
  finish(pending, std::move(resp));
}

void ServiceEngine::reject_all(std::vector<Pending>& pendings,
                               const char* reason) {
  for (Pending& pending : pendings) {
    Response resp;
    resp.status = Response::Status::kRejected;
    resp.reason = reason;
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    finish(pending, std::move(resp));
  }
}

void ServiceEngine::finish(Pending& pending, Response resp) {
  const std::uint64_t trace_id = pending.request.trace_id;
  resp.id = pending.request.id;
  resp.total_ns = now_ns() - pending.submit_ns;
  total_histogram(resp).record(resp.total_ns, trace_id);
  if (!tenant_latency_.empty() &&
      resp.status != Response::Status::kRejected)
    tenant_latency_[pending.tenant].record(resp.total_ns, trace_id);
  pending.complete(std::move(resp));
}

ServiceEngine::Stats ServiceEngine::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.served_cached = served_cached_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.dispatch_cycles = dispatch_cycles_.load(std::memory_order_relaxed);
  s.queue_capacity = queue_->capacity();
  s.cache = cache_.stats();
  s.graph_cache = graph_cache_.stats();
  s.sessions = sessions_.stats();
  s.qos_enabled = fair_queue_ != nullptr;
  if (fair_queue_ != nullptr) s.qos_tenants = fair_queue_->tenant_stats();
  return s;
}

std::string stats_json(const ServiceEngine::Stats& stats) {
  std::ostringstream os;
  os << "{\"submitted\":" << stats.submitted
     << ",\"accepted\":" << stats.accepted
     << ",\"rejected_full\":" << stats.rejected_full
     << ",\"rejected_shutdown\":" << stats.rejected_shutdown
     << ",\"served\":" << stats.served
     << ",\"served_cached\":" << stats.served_cached
     << ",\"errors\":" << stats.errors << ",\"batches\":" << stats.batches
     << ",\"dispatch_cycles\":" << stats.dispatch_cycles
     << ",\"cache\":{\"hits\":" << stats.cache.hits
     << ",\"misses\":" << stats.cache.misses
     << ",\"evictions\":" << stats.cache.evictions
     << ",\"entries\":" << stats.cache.entries
     << ",\"bytes\":" << stats.cache.bytes
     << "},\"graph_cache\":{\"hits\":" << stats.graph_cache.hits
     << ",\"builds\":" << stats.graph_cache.builds
     << ",\"evictions\":" << stats.graph_cache.evictions
     << ",\"entries\":" << stats.graph_cache.entries
     << "},\"sessions\":{\"hits\":" << stats.sessions.hits
     << ",\"misses\":" << stats.sessions.misses
     << ",\"evictions\":" << stats.sessions.evictions
     << ",\"entries\":" << stats.sessions.entries
     << "},\"shed\":" << stats.shed
     << ",\"shed_deadline\":" << stats.shed_deadline
     << ",\"queue_capacity\":" << stats.queue_capacity
     << ",\"qos\":{\"enabled\":" << (stats.qos_enabled ? 1 : 0)
     << ",\"tenants\":[";
  for (std::size_t i = 0; i < stats.qos_tenants.size(); ++i) {
    const auto& t = stats.qos_tenants[i];
    if (i > 0) os << ",";
    // Tenant names come from EngineConfig (never raw wire bytes — an
    // unknown wire tenant resolves to "default"), so they are emitted
    // verbatim; configs must keep them JSON-safe.
    os << "{\"name\":\"" << t.name << "\",\"weight\":" << t.weight
       << ",\"depth\":" << t.depth << ",\"admitted\":" << t.admitted
       << ",\"shed_rate\":" << t.shed_rate
       << ",\"shed_deadline\":" << t.shed_deadline
       << ",\"deficit\":" << t.deficit << "}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace pslocal::service
