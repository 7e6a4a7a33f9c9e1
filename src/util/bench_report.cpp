#include "util/bench_report.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "runtime/global.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace pslocal {

namespace {

std::string json_escape(const std::string& s) { return json::escape(s); }

/// True iff strtod consumes the whole cell — i.e. the cell is already a
/// valid JSON number ("12", "-0.5", "1e3"), as opposed to decorated
/// numerics like "1.500x" or "75%", which stay strings.
bool is_plain_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(v);
}

std::string cell_to_json(const std::string& cell) {
  if (is_plain_number(cell)) return cell;
  return '"' + json_escape(cell) + '"';
}

std::string double_to_json(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// The "obs" section: counters/gauges/histograms snapshot, taken when
// the report serializes.  Histogram buckets are emitted sparsely as
// [inclusive_upper_bound, count] pairs.
void append_obs_section(std::ostringstream& os) {
  const obs::Snapshot snap = obs::snapshot();
  os << "  \"obs\": {\n    \"counters\": {";
  std::size_t i = 0;
  for (const auto& [name, value] : snap.counters)
    os << (i++ ? ", " : "") << '"' << json_escape(name) << "\": " << value;
  os << "},\n    \"gauges\": {";
  i = 0;
  for (const auto& [name, value] : snap.gauges)
    os << (i++ ? ", " : "") << '"' << json_escape(name) << "\": " << value;
  os << "},\n    \"histograms\": {";
  i = 0;
  for (const auto& [name, h] : snap.histograms) {
    os << (i++ ? "," : "") << "\n      \"" << json_escape(name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"mean\": " << double_to_json(h.mean()) << ", \"buckets\": [";
    std::size_t b = 0;
    for (std::size_t k = 0; k < obs::HistogramSnapshot::kBuckets; ++k) {
      if (h.buckets[k] == 0) continue;
      os << (b++ ? ", " : "") << '[' << obs::histogram_bucket_upper(k)
         << ", " << h.buckets[k] << ']';
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "}" : "\n    }") << "\n  }";
}

}  // namespace

void apply_thread_option(const Options& opts) {
  if (opts.has("threads")) {
    const long threads = opts.get_int("threads", 0);
    PSL_EXPECTS_MSG(threads >= 0, "--threads must be >= 0, got " << threads);
    runtime::set_global_thread_count(static_cast<std::size_t>(threads));
  }
  const std::string trace = opts.trace_out();
  if (!trace.empty()) obs::start_tracing(trace);
}

BenchReport::BenchReport(std::string name, const Options& opts)
    : name_(std::move(name)), json_out_(opts.json_out()) {
  for (const auto& [key, value] : opts.values())
    if (key != "threads") options_.emplace_back(key, cell_to_json(value));
  // Record the *effective* lane count, so every run is fully described
  // by its JSON: without --threads, and with --threads=0 (hardware
  // concurrency).
  options_.emplace_back("threads",
                        std::to_string(runtime::global_thread_count()));
}

BenchReport& BenchReport::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, double_to_json(value));
  return *this;
}

BenchReport& BenchReport::metric(const std::string& key,
                                 const std::string& value) {
  metrics_.emplace_back(key, '"' + json_escape(value) + '"');
  return *this;
}

BenchReport& BenchReport::metric_json(const std::string& key,
                                      const std::string& raw) {
  metrics_.emplace_back(key, raw.empty() ? "null" : raw);
  return *this;
}

BenchReport& BenchReport::add_table(const Table& t) {
  tables_.push_back({t.caption(), t.columns(), t.data_rows()});
  return *this;
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << json_escape(name_) << "\",\n";
  os << "  \"options\": {";
  for (std::size_t i = 0; i < options_.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(options_[i].first)
       << "\": " << options_[i].second;
  }
  os << "},\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(metrics_[i].first)
       << "\": " << metrics_[i].second;
  }
  os << "},\n  \"tables\": [";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& tab = tables_[t];
    os << (t ? "," : "") << "\n    {\n      \"caption\": \""
       << json_escape(tab.caption) << "\",\n      \"columns\": [";
    for (std::size_t c = 0; c < tab.columns.size(); ++c)
      os << (c ? ", " : "") << '"' << json_escape(tab.columns[c]) << '"';
    os << "],\n      \"rows\": [";
    for (std::size_t r = 0; r < tab.rows.size(); ++r) {
      os << (r ? "," : "") << "\n        [";
      for (std::size_t c = 0; c < tab.rows[r].size(); ++c)
        os << (c ? ", " : "") << cell_to_json(tab.rows[r][c]);
      os << ']';
    }
    os << (tab.rows.empty() ? "]" : "\n      ]") << "\n    }";
  }
  os << (tables_.empty() ? "]" : "\n  ]") << ",\n";
  append_obs_section(os);
  os << "\n}";
  return os.str();
}

std::string BenchReport::write() const {
  // Close a --trace-out session first so the trace lands even when the
  // JSON report itself is suppressed with --json-out=none.
  obs::finish_tracing();
  std::string path = json_out_.empty() ? "BENCH_" + name_ + ".json"
                                       : json_out_;
  if (path == "none") return "";
  std::ofstream out(path);
  PSL_CHECK_MSG(out.good(), "cannot open --json-out path " << path);
  out << to_json() << '\n';
  return path;
}

}  // namespace pslocal
