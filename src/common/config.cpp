#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/string_util.hpp"

namespace wm {

namespace {

std::string env_key(const std::string& key) {
  std::string out = "WM_";
  for (char c : key) {
    out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

}  // namespace

void Config::set_default(const std::string& key, const std::string& value) {
  defaults_[key] = value;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return lookup(key).has_value();
}

std::optional<std::string> Config::lookup(const std::string& key) const {
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_key(key).c_str())) return std::string(env);
  if (auto it = defaults_.find(key); it != defaults_.end()) return it->second;
  return std::nullopt;
}

std::string Config::get_string(const std::string& key) const {
  auto v = lookup(key);
  WM_CHECK(v.has_value(), "missing config key '", key, "'");
  return *v;
}

int Config::get_int(const std::string& key) const {
  return parse_int(get_string(key), "config key '" + key + "'");
}

double Config::get_double(const std::string& key) const {
  return parse_double(get_string(key), "config key '" + key + "'");
}

bool Config::get_bool(const std::string& key) const {
  std::string v = get_string(key);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw InvalidArgument("config key '" + key + "' is not a bool: " + v);
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  return contains(key) ? get_string(key) : fallback;
}
int Config::get_int(const std::string& key, int fallback) const {
  return contains(key) ? get_int(key) : fallback;
}
double Config::get_double(const std::string& key, double fallback) const {
  return contains(key) ? get_double(key) : fallback;
}
bool Config::get_bool(const std::string& key, bool fallback) const {
  return contains(key) ? get_bool(key) : fallback;
}

double bench_scale() {
  const char* env = std::getenv("WM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double s = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(s) || s <= 0.0) {
    log_warn("WM_BENCH_SCALE='", env,
             "' is not a finite number > 0; using 1.0");
    return 1.0;
  }
  return s;
}

int scaled(int n, double scale, int min_value) {
  WM_CHECK(scale > 0.0, "non-positive scale: ", scale);
  const double v = std::round(n * scale);
  WM_CHECK(v >= std::numeric_limits<int>::min() &&
               v <= std::numeric_limits<int>::max(),
           "scaled count ", n, " * ", scale, " does not fit an int");
  return std::max(min_value, static_cast<int>(v));
}

}  // namespace wm
