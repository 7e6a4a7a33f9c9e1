#include "qos/fair_queue.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pslocal::qos {

namespace {
const obs::Counter g_admitted("qos.admitted");
const obs::Counter g_shed_rate("qos.shed_rate");
const obs::Counter g_shed_deadline("qos.shed_deadline");
const obs::Counter g_rejected_full("qos.rejected_full");
const obs::Histogram g_depth("qos.queue.depth");

/// Backoff hint for a lane-bound shed, where no token-bucket clock
/// exists to derive one from: long enough to let a dispatch cycle
/// drain the lane, fixed so replay schedules stay deterministic.
constexpr std::uint64_t kLaneBoundBackoffUs = 1000;
}  // namespace

FairQueue::FairQueue(const QosConfig& config, std::size_t capacity)
    : registry_(config.tenants),
      capacity_(capacity),
      quantum_(config.quantum > 0 ? config.quantum : 1) {
  PSL_EXPECTS(capacity > 0);
  lanes_.reserve(registry_.size());
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const TenantConfig& cfg = registry_.config(i);
    lanes_.emplace_back(TokenBucket(cfg.rate_rps, cfg.burst));
  }
  Rng rng(config.seed);
  order_ = rng.permutation(registry_.size());
}

service::AdmissionVerdict FairQueue::admit(service::Pending&& pending) {
  service::AdmissionVerdict verdict;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return {service::Admission::kShutdown, 0};
    const std::size_t idx = registry_.resolve(pending.request.tenant);
    const TenantConfig& cfg = registry_.config(idx);
    Lane& lane = lanes_[idx];
    if (total_ >= capacity_) {
      g_rejected_full.add();
      return {service::Admission::kQueueFull, 0};
    }
    if (cfg.queue_limit > 0 && lane.fifo.size() >= cfg.queue_limit) {
      ++lane.shed_rate;
      g_shed_rate.add();
      return {service::Admission::kShed, kLaneBoundBackoffUs};
    }
    verdict = charge_locked(pending, idx);
    if (verdict.admission != service::Admission::kAccepted) return verdict;
    lane.fifo.push_back(std::move(pending));
    ++total_;
    g_depth.record(total_);
  }
  cv_.notify_one();
  return verdict;
}

service::AdmissionVerdict FairQueue::admit_hit(service::Pending& pending) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return {service::Admission::kShutdown, 0};
  return charge_locked(pending, registry_.resolve(pending.request.tenant));
}

service::AdmissionVerdict FairQueue::charge_locked(service::Pending& pending,
                                                   std::size_t idx) {
  const TenantConfig& cfg = registry_.config(idx);
  Lane& lane = lanes_[idx];
  const TokenBucket::Verdict tb = lane.bucket.try_acquire(pending.submit_ns);
  if (!tb.admitted) {
    ++lane.shed_rate;
    g_shed_rate.add();
    return {service::Admission::kShed, tb.retry_after_us};
  }
  pending.tenant = idx;
  if (cfg.deadline_ms > 0)
    pending.deadline_ns = pending.submit_ns + cfg.deadline_ms * 1'000'000;
  ++lane.admitted;
  g_admitted.add();
  return {service::Admission::kAccepted, 0};
}

std::size_t FairQueue::pop_batch(std::vector<service::Pending>& out,
                                 std::size_t max) {
  PSL_EXPECTS(max > 0);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return total_ > 0 || shutdown_; });
  std::size_t popped = 0;
  // Deficit round robin over the seeded visit order: each visit of a
  // backlogged lane earns quantum x weight credit; unit request cost.
  // An empty lane forfeits its carry (classic DRR — idle tenants do not
  // bank credit while others drain).  The cursor survives the call: a
  // pop that fills `max` mid-visit leaves the visit open, and the next
  // pop resumes it without a second credit — so popping a round one
  // request at a time yields the same sequence as popping it whole.
  while (popped < max && total_ > 0) {
    const std::size_t idx = order_[cursor_];
    Lane& lane = lanes_[idx];
    if (!lane.fifo.empty() && !visit_open_) {
      lane.deficit += quantum_ * registry_.config(idx).weight;
      visit_open_ = true;
    }
    while (lane.deficit >= 1 && !lane.fifo.empty() && popped < max) {
      out.push_back(std::move(lane.fifo.front()));
      lane.fifo.pop_front();
      lane.deficit -= 1;
      --total_;
      ++popped;
    }
    if (lane.fifo.empty()) lane.deficit = 0;
    if (lane.deficit >= 1 && !lane.fifo.empty()) break;  // max reached
    cursor_ = (cursor_ + 1) % order_.size();
    visit_open_ = false;
  }
  return popped;
}

void FairQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::size_t FairQueue::drain(std::vector<service::Pending>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = total_;
  for (const std::size_t idx : order_) {
    Lane& lane = lanes_[idx];
    while (!lane.fifo.empty()) {
      out.push_back(std::move(lane.fifo.front()));
      lane.fifo.pop_front();
    }
    lane.deficit = 0;
  }
  total_ = 0;
  cursor_ = 0;
  visit_open_ = false;
  return n;
}

std::size_t FairQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FairQueue::record_deadline_shed(std::size_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  PSL_EXPECTS(tenant < lanes_.size());
  ++lanes_[tenant].shed_deadline;
  g_shed_deadline.add();
}

std::vector<FairQueue::TenantSnapshot> FairQueue::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const TenantConfig& cfg = registry_.config(i);
    const Lane& lane = lanes_[i];
    out.push_back({cfg.name.empty() ? "default" : cfg.name, cfg.weight,
                   lane.fifo.size(), lane.admitted, lane.shed_rate,
                   lane.shed_deadline, lane.deficit});
  }
  return out;
}

}  // namespace pslocal::qos
