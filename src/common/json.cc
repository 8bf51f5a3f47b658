#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>

#include "common/string_util.h"

namespace scanraw {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// The whole of `token` is one T.
template <typename T>
bool FromChars(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void AppendUtf8(unsigned code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
    return;
  }
  if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | code >> 6));
  } else {
    out->push_back(static_cast<char>(0xE0 | code >> 12));
    out->push_back(static_cast<char>(0x80 | (code >> 6 & 0x3F)));
  }
  out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
}

}  // namespace

void JsonReader::SkipWhitespace() {
  while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                              s_[pos_] == '\n' || s_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  SkipWhitespace();
  if (pos_ >= s_.size() || s_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool JsonReader::AtEnd() {
  SkipWhitespace();
  return pos_ >= s_.size();
}

std::string_view JsonReader::Token() {
  static constexpr std::string_view kTokenBytes =
      "+-.0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  SkipWhitespace();
  const size_t start = pos_;
  pos_ = std::min(s_.find_first_not_of(kTokenBytes, pos_), s_.size());
  return s_.substr(start, pos_ - start);
}

bool JsonReader::Read(std::string* out) {
  if (!Consume('"')) return false;
  out->clear();
  while (pos_ < s_.size()) {
    const char c = s_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_++]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = pos_ < s_.size() ? HexDigitValue(s_[pos_++]) : -1;
          if (digit < 0) return false;
          code = code << 4 | static_cast<unsigned>(digit);
        }
        AppendUtf8(code, out);
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated
}

bool JsonReader::Read(uint64_t* out) { return FromChars(Token(), out); }
bool JsonReader::Read(int64_t* out) { return FromChars(Token(), out); }
bool JsonReader::Read(double* out) { return FromChars(Token(), out); }

bool JsonReader::Read(bool* out) {
  const std::string_view token = Token();
  if (token != "true" && token != "false") return false;
  *out = token == "true";
  return true;
}

bool JsonReader::SkipValue() {
  std::string open;  // the '{' / '[' enclosing the cursor, innermost last
  std::string scratch;
  while (true) {
    // The cursor is at a value.
    SkipWhitespace();
    const char c = pos_ < s_.size() ? s_[pos_] : '\0';
    if (c == '{' || c == '[') {
      ++pos_;
      if (!Consume(c == '{' ? '}' : ']')) {
        open.push_back(c);
        if (c == '{' && !(Read(&scratch) && Consume(':'))) return false;
        continue;
      }
    } else if (c == '"') {
      if (!Read(&scratch)) return false;
    } else {
      const std::string_view token = Token();
      double number;
      if (token != "true" && token != "false" && token != "null" &&
          !FromChars(token, &number)) {
        return false;
      }
    }
    // Past a value: close the containers that end here, then step to the
    // next value.
    while (true) {
      if (open.empty()) return true;
      if (Consume(',')) {
        if (open.back() == '{' && !(Read(&scratch) && Consume(':'))) {
          return false;
        }
        break;
      }
      if (!Consume(open.back() == '{' ? '}' : ']')) return false;
      open.pop_back();
    }
  }
}

}  // namespace scanraw
