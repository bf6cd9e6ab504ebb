#include "common/string_util.h"

#include <string.h>

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace lsg {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string ErrnoString(int errno_value) {
  char buf[256];
  // glibc's GNU strerror_r either fills buf or returns a pointer to an
  // immutable static message; both are safe to copy from.
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return strerror_r(errno_value, buf, sizeof(buf));
#else
  if (strerror_r(errno_value, buf, sizeof(buf)) != 0) {
    std::snprintf(buf, sizeof(buf), "errno %d", errno_value);
  }
  return buf;
#endif
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double v) {
  // Range check first: casting NaN, ±inf or |v| >= 2^63 is undefined.
  if (std::abs(v) < 1e15 && v == static_cast<int64_t>(v)) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  // Shortest representation that parses back to the identical double, so
  // rendered SQL literals survive a render → parse round trip exactly.
  std::string s = StrFormat("%.15g", v);
  if (std::strtod(s.c_str(), nullptr) != v) s = StrFormat("%.17g", v);
  return s;
}

std::string HumanCount(double v) {
  const char* suffix = "";
  double scaled = v;
  if (std::abs(v) >= 1e9) {
    scaled = v / 1e9;
    suffix = "G";
  } else if (std::abs(v) >= 1e6) {
    scaled = v / 1e6;
    suffix = "M";
  } else if (std::abs(v) >= 1e3) {
    scaled = v / 1e3;
    suffix = "K";
  }
  std::string num = FormatDouble(std::round(scaled * 10.0) / 10.0);
  return num + suffix;
}

}  // namespace lsg
