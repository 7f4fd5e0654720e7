#include "harness/flags.h"

#include <charconv>
#include <optional>
#include <system_error>

namespace metricprox {

namespace {

/// All of `text` as a T, or nullopt for an empty value, trailing
/// characters or a value outside T's range.
template <typename T>
std::optional<T> ParseWhole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || rest != end) return std::nullopt;
  return value;
}

}  // namespace

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --key[=value], got: " + arg);
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values_[arg.substr(2)] = "true";
    } else {
      flags.values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

void Flags::RecordBadValue(const std::string& key, const std::string& value,
                           const char* expected) const {
  if (!bad_value_.ok()) return;
  bad_value_ = Status::InvalidArgument("invalid value for --" + key + ": '" +
                                       value + "' (expected " + expected +
                                       ")");
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  used_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  used_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  if (const std::optional<int64_t> v = ParseWhole<int64_t>(it->second)) {
    return *v;
  }
  RecordBadValue(key, it->second, "a 64-bit integer");
  return default_value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  used_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  if (const std::optional<double> v = ParseWhole<double>(it->second)) {
    return *v;
  }
  RecordBadValue(key, it->second, "a number");
  return default_value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  used_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  RecordBadValue(key, v, "true|1|yes|false|0|no");
  return default_value;
}

Status Flags::FailOnUnused() const {
  if (!bad_value_.ok()) return bad_value_;
  for (const auto& [key, value] : values_) {
    if (used_.find(key) == used_.end()) {
      return Status::InvalidArgument("unknown flag: --" + key);
    }
  }
  return Status::OK();
}

}  // namespace metricprox
