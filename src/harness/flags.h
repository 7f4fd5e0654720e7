#ifndef METRICPROX_HARNESS_FLAGS_H_
#define METRICPROX_HARNESS_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/status.h"

namespace metricprox {

/// Minimal `--key=value` / `--flag` command-line parser for the bench and
/// example binaries (no external dependency; unknown flags are errors so
/// typos do not silently fall back to defaults).
class Flags {
 public:
  /// Parses argv. On error (malformed token) returns InvalidArgument.
  static StatusOr<Flags> Parse(int argc, const char* const* argv);

  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  /// Each Get* returns `default_value` for an absent flag. A present value
  /// must parse whole: GetInt takes a 64-bit integer, GetDouble a number
  /// (nan and inf included; callers reject them where they mean nothing),
  /// GetBool one of true|1|yes|false|0|no. A value that does not parse
  /// yields the default and is reported by FailOnUnused.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// The first value a Get* could not parse, else the first flag no Get*
  /// has read, as InvalidArgument; OK otherwise. Call it once every flag
  /// has been read and before any work.
  Status FailOnUnused() const;

 private:
  /// Keeps the first unparseable value for FailOnUnused.
  void RecordBadValue(const std::string& key, const std::string& value,
                      const char* expected) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  mutable Status bad_value_;
};

}  // namespace metricprox

#endif  // METRICPROX_HARNESS_FLAGS_H_
