// Lightweight typed configuration store.
//
// Experiments read tuning knobs (dataset scale, epochs, ...) through Config
// so that benches, examples and tests share one override mechanism:
// environment variables named WM_<KEY> win over programmatic defaults.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace wm {

class Config {
 public:
  Config() = default;

  /// Sets a default value (does not override an existing key).
  void set_default(const std::string& key, const std::string& value);

  /// Sets a value unconditionally.
  void set(const std::string& key, const std::string& value);

  bool contains(const std::string& key) const;

  /// Typed getters. Look-up order: explicit set > env WM_<KEY> > default.
  /// Throw wm::InvalidArgument when the key is absent everywhere or malformed.
  std::string get_string(const std::string& key) const;
  int get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// Like the getters above but returning fallback when absent.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::optional<std::string> lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> defaults_;
};

/// Global experiment scale multiplier from env WM_BENCH_SCALE (default 1.0).
/// Benches multiply dataset sizes and epoch counts by this. Anything but a
/// whole finite number > 0 logs a warning and yields 1.0.
double bench_scale();

/// Rounds scale * n to an integer, clamped to at least min_value. Throws
/// InvalidArgument when scale is not > 0 or the rounded product does not
/// fit an int.
int scaled(int n, double scale, int min_value = 1);

}  // namespace wm
