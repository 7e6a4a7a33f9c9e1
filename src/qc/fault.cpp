#include "qc/fault.hpp"

#include <algorithm>
#include <future>
#include <sstream>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "service/engine.hpp"
#include "util/check.hpp"

namespace pslocal::qc {

FaultPlan arbitrary_fault_plan(Rng& rng) {
  FaultPlan plan;
  // The first draw is discarded.  It keeps every later draw in place,
  // and so every plan (and fuzz input) a given seed has always reached.
  (void)rng.next_u64();
  plan.queue_capacity = 2 + rng.next_below(6);
  plan.burst = plan.queue_capacity + rng.next_below(10);
  plan.cache_entries = 1 + rng.next_below(4);
  plan.graph_cache_entries = rng.next_below(3);
  plan.disable_cache = rng.next_bool(0.25);
  return plan;
}

FaultReport run_fault_plan(const FaultPlan& plan,
                           const service::Trace& trace) {
  FaultReport report;
  service::EngineConfig cfg;
  cfg.queue_capacity = plan.queue_capacity;
  cfg.cache.max_entries = plan.cache_entries;
  cfg.cache.enabled = !plan.disable_cache;
  cfg.graph_cache_entries = plan.graph_cache_entries;
  service::ServiceEngine engine(cfg);

  const std::size_t total = trace.requests.size();
  std::vector<std::future<service::Response>> futures(total);
  std::vector<bool> accepted(total, false);

  // Phase 1 — queue-full burst against the un-started engine (the
  // deterministic admission probe): exactly queue_capacity submissions
  // fit, the overflow must come back kQueueFull, and a rejection must
  // leave every cache untouched.
  const std::size_t burst = std::min(plan.burst, total);
  for (std::size_t i = 0; i < burst; ++i) {
    auto sub = engine.submit(trace.requests[i]);
    switch (sub.admission) {
      case service::Admission::kAccepted:
        futures[i] = std::move(sub.response);
        accepted[i] = true;
        break;
      case service::Admission::kQueueFull:
        ++report.probe_rejected_full;
        break;
      case service::Admission::kShutdown:
        report.error = "shutdown admission from a running engine";
        return report;
      case service::Admission::kShed:
        report.error = "shed admission from an engine without QoS";
        return report;
    }
  }
  const std::size_t expected_rejects =
      burst > plan.queue_capacity ? burst - plan.queue_capacity : 0;
  if (report.probe_rejected_full != expected_rejects) {
    std::ostringstream os;
    os << "admission probe not deterministic: " << report.probe_rejected_full
       << " kQueueFull, expected " << expected_rejects;
    report.error = os.str();
    return report;
  }
  const auto probe_stats = engine.stats();
  report.cache_untouched_on_reject =
      probe_stats.cache.hits == 0 && probe_stats.cache.misses == 0 &&
      probe_stats.cache.entries == 0 && probe_stats.graph_cache.builds == 0;
  if (!report.cache_untouched_on_reject) {
    report.error = "kQueueFull rejection mutated cache state";
    return report;
  }

  engine.start();

  // Phase 2 — submit everything not yet admitted; kQueueFull now just
  // means the serving lanes have not drained yet, so retry until accepted.
  for (std::size_t i = 0; i < total; ++i) {
    if (accepted[i]) continue;
    for (;;) {
      auto sub = engine.submit(trace.requests[i]);
      if (sub.admission == service::Admission::kAccepted) {
        futures[i] = std::move(sub.response);
        accepted[i] = true;
        break;
      }
      if (sub.admission == service::Admission::kShutdown) {
        report.error = "shutdown admission while the engine is running";
        return report;
      }
      ++report.retries;
      std::this_thread::yield();
    }
  }

  // Differential verification: every response must be kOk with payload
  // bytes identical to a direct solver call — no cache, no lane.
  runtime::ThreadPool reference(1);
  for (std::size_t i = 0; i < total; ++i) {
    const service::Response resp = futures[i].get();
    if (resp.status != service::Response::Status::kOk) {
      std::ostringstream os;
      os << "request " << trace.requests[i].id << " not served kOk: "
         << resp.reason;
      report.error = os.str();
      return report;
    }
    if (resp.id != trace.requests[i].id) {
      report.error = "response id does not match its request";
      return report;
    }
    ++report.served;
    const std::string direct =
        service::execute_request(trace.requests[i], reference);
    if (direct != resp.result) {
      if (report.mismatches == 0) report.first_mismatch_id = resp.id;
      ++report.mismatches;
    }
  }

  const auto stats = engine.stats();
  engine.stop();
  report.cache_evictions = stats.cache.evictions;
  if (stats.served != total) {
    std::ostringstream os;
    os << "served " << stats.served << " responses for " << total
       << " accepted requests (exactly-once violated)";
    report.error = os.str();
    return report;
  }
  if (stats.errors != 0) {
    report.error = "engine reported solver errors on valid requests";
    return report;
  }
  if (report.mismatches > 0) {
    std::ostringstream os;
    os << report.mismatches << " payloads differ from the direct solver "
       << "call (first id " << report.first_mismatch_id << ")";
    report.error = os.str();
  }
  return report;
}

}  // namespace pslocal::qc
