#include "service/stages.hpp"

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pslocal::service::stages {

namespace {

// Every per-kind stage histogram, registered once on first use.
// Registration copies the name, so building it from temporaries is
// fine; the handles themselves are just small ids.
const obs::Histogram& stage_histogram(Stage stage, RequestKind kind) {
  static const std::vector<obs::Histogram>* table = [] {
    auto* t = new std::vector<obs::Histogram>;
    t->reserve(kStageCount * kRequestKindCount);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      for (std::size_t k = 0; k < kRequestKindCount; ++k) {
        const std::string name =
            std::string("service.stage.") + stage_name(static_cast<Stage>(s)) +
            "." + kind_name(static_cast<RequestKind>(k));
        t->emplace_back(name.c_str());
      }
    }
    return t;
  }();
  return (*table)[static_cast<std::size_t>(stage) * kRequestKindCount +
                  static_cast<std::size_t>(kind)];
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kAdmissionWait: return "admission_wait_ns";
    case Stage::kQueueDepth: return "queue_depth";
    case Stage::kDispatchWait: return "dispatch_wait_ns";
    case Stage::kCacheProbe: return "cache_probe_ns";
    case Stage::kSolve: return "solve_ns";
    case Stage::kSerialize: return "serialize_ns";
    case Stage::kWireWrite: return "wire_write_ns";
    case Stage::kRtt: return "rtt_ns";
  }
  return "unknown";
}

void record(Stage stage, RequestKind kind, std::uint64_t value,
            std::uint64_t exemplar_trace_id) {
  if constexpr (!obs::kEnabled) return;
  stage_histogram(stage, kind).record(value, exemplar_trace_id);
}

}  // namespace pslocal::service::stages
