// Machine-readable counterpart of the ASCII experiment tables.
//
// Every bench binary renders human-readable tables (util/table) *and*
// writes one JSON trajectory file so plots and regression tracking never
// have to scrape box-drawing output.  Schema:
//
//   {
//     "bench": "<name>",
//     "options": { "seed": 1, "threads": 4, ... },   // CLI verbatim +
//                                                    // effective threads
//     "metrics": { "fit_slope": 1.98, ... },         // scalar summaries
//     "tables": [
//       { "caption": "...", "columns": [...], "rows": [[...], ...] }
//     ],
//     "obs": {                       // obs snapshot taken at write time
//       "counters": { "local.rounds": 12, ... },
//       "gauges": { ... },
//       "histograms": { "slocal.locality": { "count": ..., "sum": ...,
//         "min": ..., "max": ..., "buckets": [[le, count], ...] } }
//     }
//   }
//
// Cells that look like plain numbers are emitted as JSON numbers, all
// other cells as strings.  Default output path is BENCH_<name>.json in
// the working directory; --json-out=<path> overrides it and
// --json-out=none suppresses the file.  The "obs" section carries the
// process-wide counters/histograms of src/obs/ (empty maps when the
// build has -DPSLOCAL_OBS=OFF), so every trajectory file records the
// runtime/engine internals of the run that produced it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/options.hpp"
#include "util/table.hpp"

namespace pslocal {

/// Apply the runtime-affecting CLI options to the process: --threads=N
/// sets the global scheduler's lane count (0 = hardware_concurrency; a
/// negative N violates the contract) and
/// --trace-out=<path> starts an obs trace session whose Chrome trace
/// JSON is written by BenchReport::write() (or obs::finish_tracing()).
/// Call once at the top of main, before any timed work.  Without the
/// flags the global pool keeps one lane and no trace is recorded.
void apply_thread_option(const Options& opts);

class BenchReport {
 public:
  /// `name` is the trajectory key: the file becomes BENCH_<name>.json.
  BenchReport(std::string name, const Options& opts);

  /// Record a scalar summary metric (NaN/inf serialize as null).
  BenchReport& metric(const std::string& key, double value);
  BenchReport& metric(const std::string& key, const std::string& value);

  /// Record a metric whose value is already JSON (object/array), spliced
  /// in verbatim — how the shard bench embeds live stats-scrape payloads
  /// (docs/tracing.md) without double-escaping them into strings.
  BenchReport& metric_json(const std::string& key, const std::string& raw);

  /// Snapshot a finished table (caption, columns, rows).
  BenchReport& add_table(const Table& t);

  /// Serialize the full report (no trailing newline).
  [[nodiscard]] std::string to_json() const;

  /// Write to the resolved path (see header comment); returns the path,
  /// or "" when writing was suppressed with --json-out=none.
  std::string write() const;

 private:
  struct Snapshot {
    std::string caption;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  std::string name_;
  std::string json_out_;                 // from --json-out ("" = default)
  std::vector<std::pair<std::string, std::string>> options_;  // verbatim
  std::vector<std::pair<std::string, std::string>> metrics_;  // key → JSON
  std::vector<Snapshot> tables_;
};

}  // namespace pslocal
