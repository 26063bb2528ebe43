// Small string/format helpers shared by the table renderers and loggers.
#pragma once

#include <string>
#include <vector>

namespace wm {

/// Formats v with the given number of digits after the decimal point.
std::string format_fixed(double v, int decimals);

/// Formats v as a percentage string, e.g. 0.941 -> "94.1%".
std::string format_percent(double fraction, int decimals = 1);

/// Left/right pads s with spaces to the given width (no truncation).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// Splits on a delimiter character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if s starts with prefix.
bool starts_with(const std::string& s, const std::string& prefix);

/// Parses all of `text` as a decimal int (std::stoi) or a double
/// (std::stod). Throws wm::InvalidArgument naming `what` (a flag or a
/// config key) when the text is empty, holds anything after the number
/// ("3x", "0.9oops"), or is out of the type's range ("99999999999",
/// "1e999"); a bare numeric prefix never passes for the whole value.
int parse_int(const std::string& text, const std::string& what);
double parse_double(const std::string& text, const std::string& what);

}  // namespace wm
