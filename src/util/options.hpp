// Tiny command-line option parser for examples and benches.
//
// Supports `--name=value` and `--flag`; anything else is a positional.
// Deliberately minimal: experiment binaries only need a handful of knobs
// (seed, sizes, lambda) and must not pull in a heavyweight dependency.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace pslocal {

class Options {
 public:
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Output path requested with --json-out; empty = use the caller's
  /// default (benches write BENCH_<name>.json).
  [[nodiscard]] std::string json_out() const {
    return get_string("json-out", "");
  }

  /// Chrome trace-event output path requested with --trace-out; empty =
  /// no trace session (docs/observability.md).
  [[nodiscard]] std::string trace_out() const {
    return get_string("trace-out", "");
  }

  /// All parsed --name=value pairs, verbatim (for report provenance).
  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace pslocal
