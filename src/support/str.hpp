#pragma once

// Small string helpers shared by the printers and benchmark tables.

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace pipoly {

/// Joins the elements of a range with a separator, using operator<<.
template <typename Range>
std::string join(const Range& range, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : range) {
    if (!first)
      os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

/// Splits on a single-character separator; keeps empty fields.
inline std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

/// `prefix` followed by decimal `index` ("A", 3 -> "A3"). Built by
/// appending: once inlined, GCC 12's `const char* + std::string&&`
/// operator+ raises a -Wrestrict false positive (GCC PR105651).
inline std::string indexedName(std::string_view prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

inline std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
    ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
    --e;
  return std::string(s.substr(b, e - b));
}

} // namespace pipoly
