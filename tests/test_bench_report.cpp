// BenchReport JSON emission: escaping, numeric-cell detection, NaN/inf
// handling and the obs section — validated by actually parsing the
// output with util/json rather than by string scraping.
#include "util/bench_report.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "runtime/global.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace pslocal {
namespace {

Options make_options(std::initializer_list<const char*> extra = {}) {
  std::vector<const char*> argv = {"test_bench_report"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchReportTest, EscapesStringsInAllPositions) {
  BenchReport report("esc\"ape\\name", make_options());
  report.metric("quote\"key", std::string("va\\lue\nwith\tcontrol\x01end"));
  Table t("cap\"tion \\ with\nnewline");
  t.header({"col\"one", "plain"});
  t.row({"cell\\\"mix", "ok"});
  report.add_table(t);

  const auto doc = json::parse(report.to_json());
  EXPECT_EQ(doc.at("bench").as_string(), "esc\"ape\\name");
  EXPECT_EQ(doc.at("metrics").at("quote\"key").as_string(),
            "va\\lue\nwith\tcontrol\x01end");
  const auto& table = doc.at("tables").at(0);
  EXPECT_EQ(table.at("caption").as_string(), "cap\"tion \\ with\nnewline");
  EXPECT_EQ(table.at("columns").at(0).as_string(), "col\"one");
  EXPECT_EQ(table.at("rows").at(0).at(0).as_string(), "cell\\\"mix");
}

TEST(BenchReportTest, DetectsNumericVersusStringCells) {
  BenchReport report("cells", make_options());
  Table t("numeric detection");
  t.header({"a", "b", "c", "d", "e", "f", "g"});
  t.row({"12", "-0.5", "1e3", "1.500x", "75%", "", "nan"});
  report.add_table(t);

  const auto row = json::parse(report.to_json()).at("tables").at(0)
                       .at("rows").at(0);
  EXPECT_TRUE(row.at(0).is_number());
  EXPECT_DOUBLE_EQ(row.at(0).as_number(), 12.0);
  EXPECT_TRUE(row.at(1).is_number());
  EXPECT_DOUBLE_EQ(row.at(1).as_number(), -0.5);
  EXPECT_TRUE(row.at(2).is_number());
  EXPECT_DOUBLE_EQ(row.at(2).as_number(), 1000.0);
  // Decorated numerics, empty cells and non-finite spellings stay strings.
  EXPECT_TRUE(row.at(3).is_string());
  EXPECT_TRUE(row.at(4).is_string());
  EXPECT_TRUE(row.at(5).is_string());
  EXPECT_TRUE(row.at(6).is_string());
}

TEST(BenchReportTest, NonFiniteMetricsSerializeAsNull) {
  BenchReport report("nonfinite", make_options());
  report.metric("nan", std::nan(""));
  report.metric("inf", std::numeric_limits<double>::infinity());
  report.metric("neg_inf", -std::numeric_limits<double>::infinity());
  report.metric("finite", 2.5);

  const auto doc = json::parse(report.to_json());
  const auto& metrics = doc.at("metrics");
  EXPECT_TRUE(metrics.at("nan").is_null());
  EXPECT_TRUE(metrics.at("inf").is_null());
  EXPECT_TRUE(metrics.at("neg_inf").is_null());
  EXPECT_DOUBLE_EQ(metrics.at("finite").as_number(), 2.5);
}

TEST(BenchReportTest, RecordsOptionsVerbatimPlusEffectiveThreads) {
  const auto opts =
      make_options({"--seed=7", "--label=run one", "--json-out=none"});
  BenchReport report("opts", opts);
  const auto doc = json::parse(report.to_json());
  const auto& options = doc.at("options");
  EXPECT_DOUBLE_EQ(options.at("seed").as_number(), 7.0);
  EXPECT_EQ(options.at("label").as_string(), "run one");
  // --threads was absent, so the effective pool size is recorded.
  EXPECT_TRUE(options.at("threads").is_number());
  EXPECT_EQ(report.write(), "");  // --json-out=none suppresses the file
}

TEST(BenchReportTest, RecordsEffectiveThreadsWhenTheFlagIsZero) {
  // --threads=0 asks for hardware concurrency; the report records the
  // lane count the run got, not the 0 it was given.
  const std::size_t lanes = runtime::global_thread_count();
  const auto opts = make_options({"--threads=0", "--json-out=none"});
  apply_thread_option(opts);
  const std::size_t effective = runtime::global_thread_count();
  const BenchReport report("threads_zero", opts);
  runtime::set_global_thread_count(lanes);
  EXPECT_GE(effective, 1u);
  EXPECT_DOUBLE_EQ(
      json::parse(report.to_json()).at("options").at("threads").as_number(),
      static_cast<double>(effective));
}

TEST(BenchReportTest, NegativeThreadsViolatesContract) {
  // A negative count must not wrap to SIZE_MAX lanes.  -1 is the only
  // value tried: the check fires before the global pool is touched.
  const std::size_t lanes = runtime::global_thread_count();
  EXPECT_THROW(apply_thread_option(make_options({"--threads=-1"})),
               ContractViolation);
  EXPECT_EQ(runtime::global_thread_count(), lanes);
}

TEST(BenchReportTest, EmitsObsSection) {
  BenchReport report("obs_section", make_options());
  const auto doc = json::parse(report.to_json());
  ASSERT_TRUE(doc.has("obs"));
  const auto& obs_section = doc.at("obs");
  EXPECT_TRUE(obs_section.at("counters").is_object());
  EXPECT_TRUE(obs_section.at("gauges").is_object());
  EXPECT_TRUE(obs_section.at("histograms").is_object());
#if PSLOCAL_OBS_ENABLED
  // Touch a metric of our own so the check doesn't depend on which
  // other tests ran before this one.
  obs::Counter("bench_report_test.touch").add(1);
  const auto doc2 = json::parse(report.to_json());
  EXPECT_DOUBLE_EQ(
      doc2.at("obs").at("counters").at("bench_report_test.touch").as_number(),
      1.0);
#else
  EXPECT_TRUE(obs_section.at("counters").members().empty());
#endif
}

}  // namespace
}  // namespace pslocal
