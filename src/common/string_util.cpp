#include "common/string_util.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace wm {

namespace {

/// Runs parse(text, &pos) and requires it to consume the whole text.
template <typename Parse>
auto parse_whole(const std::string& text, const std::string& what,
                 const char* type, Parse parse) {
  try {
    std::size_t pos = 0;
    const auto out = parse(text, &pos);
    if (pos == text.size()) return out;
  } catch (const std::logic_error&) {
    // std::invalid_argument (no number) or std::out_of_range.
  }
  throw InvalidArgument(what + " is not " + type + ": '" + text + "'");
}

}  // namespace

std::string format_fixed(double v, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << v;
  return os.str();
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + "%";
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(std::move(cur));
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

int parse_int(const std::string& text, const std::string& what) {
  return parse_whole(text, what, "an int",
                     [](const std::string& t, std::size_t* pos) {
                       return std::stoi(t, pos);
                     });
}

double parse_double(const std::string& text, const std::string& what) {
  return parse_whole(text, what, "a number",
                     [](const std::string& t, std::size_t* pos) {
                       return std::stod(t, pos);
                     });
}

}  // namespace wm
