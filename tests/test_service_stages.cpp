// service/stages: every (stage, request kind) pair records into its own
// service.stage.<stage>.<kind> histogram, for every kind there is.
#include "service/stages.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace pslocal::service::stages {
namespace {

#if PSLOCAL_OBS_ENABLED

TEST(ServiceStagesTest, EveryStageOfEveryKindLandsInItsOwnHistogram) {
  // One distinct value per pair: two pairs that share a histogram show
  // up as a wrong count or sum there, and as an empty histogram at the
  // name that got nothing.
  const auto value = [](std::size_t stage, std::size_t kind) {
    return std::uint64_t{1000 + 10 * stage + kind};
  };
  const obs::Snapshot before = obs::snapshot();
  for (std::size_t s = 0; s < kStageCount; ++s)
    for (std::size_t k = 0; k < kRequestKindCount; ++k)
      record(static_cast<Stage>(s), static_cast<RequestKind>(k), value(s, k));
  const obs::Snapshot after = obs::snapshot();

  for (std::size_t s = 0; s < kStageCount; ++s) {
    for (std::size_t k = 0; k < kRequestKindCount; ++k) {
      const std::string name = std::string("service.stage.") +
                               stage_name(static_cast<Stage>(s)) + "." +
                               kind_name(static_cast<RequestKind>(k));
      const obs::HistogramSnapshot was = before.histogram(name);
      const obs::HistogramSnapshot now = after.histogram(name);
      EXPECT_EQ(now.count - was.count, 1u) << name;
      EXPECT_EQ(now.sum - was.sum, value(s, k)) << name;
    }
  }
}

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal::service::stages
