// The command-line parser of wm_tool and loadgen: `--key value` pairs, bare
// `--key` flags (read as "true"), and positional arguments (any other token
// that does not start with "--").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace wm {

class Args {
 public:
  /// Parses argv[first] .. argv[argc - 1].
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "true";
      }
    }
  }

  std::string get(const std::string& key) const {
    auto it = values_.find(key);
    WM_CHECK(it != values_.end(), "missing required flag --", key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// An integer flag that must lie in [lo, hi]; `fallback` when absent.
  template <typename T>
  T get_int(const std::string& key, T fallback, std::int64_t lo,
            std::int64_t hi) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const int v = parse_int(it->second, "--" + key);
    WM_CHECK(v >= lo && v <= hi, "--", key, " must be in [", lo, ", ", hi,
             "], got ", v);
    return static_cast<T>(v);
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parse_double(it->second, "--" + key);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  /// The arguments that are neither a flag nor a flag's value, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace wm
