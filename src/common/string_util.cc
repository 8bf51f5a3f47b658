#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace scanraw {

std::string HumanBytes(uint64_t bytes) {
  static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string HumanDuration(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  }
  return buf;
}

std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.push_back(input.substr(start));
      break;
    }
    parts.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

void AppendUint64(std::string* out, uint64_t value) {
  char buf[20];
  int len = 0;
  do {
    buf[len++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (int i = len - 1; i >= 0; --i) out->push_back(buf[i]);
}

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentEscape(std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (s.empty()) return "%e";  // a literal '%' is always escaped
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '%' || std::isspace(byte)) {
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string PercentUnescape(std::string_view s) {
  if (s == "%e") return "";
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = HexDigitValue(s[i + 1]);
      const int lo = HexDigitValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi << 4 | lo);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char stack_buf[256];
  va_list ap_copy;
  va_copy(ap_copy, ap);
  int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
  va_end(ap);
  if (needed < 0) {
    va_end(ap_copy);
    return std::string();
  }
  if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    va_end(ap_copy);
    return std::string(stack_buf, needed);
  }
  std::string out(needed, '\0');
  std::vsnprintf(out.data(), needed + 1, fmt, ap_copy);
  va_end(ap_copy);
  return out;
}

}  // namespace scanraw
