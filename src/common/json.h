// The JSON codec for documents the program writes and later reads back:
// query-log lines, bench artifacts, EXPLAIN and metrics dumps. JsonEscape
// writes a string body; JsonReader is a cursor over one JSON text that
// reads the scalar kinds those documents hold, walks objects and arrays
// through callbacks, and skips any value without recursion, so hostile
// nesting costs heap, never call stack. The raw-data JSONL tokenizer
// (format/json_tokenizer.h) is a separate hot-path scanner.
#ifndef SCANRAW_COMMON_JSON_H_
#define SCANRAW_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace scanraw {

// Escapes `s` as a JSON string body: '"', '\\', '\n', '\r' and '\t' by
// name, other bytes below 0x20 as \u00xx, every other byte verbatim.
std::string JsonEscape(std::string_view s);

// Every Read* skips leading whitespace and returns false on a syntax error
// or a value of another kind; the caller then abandons the text.
class JsonReader {
 public:
  // `text` is not copied and must outlive the reader.
  explicit JsonReader(std::string_view text) : s_(text) {}

  // Consumes `c` when it is the next non-whitespace byte.
  bool Consume(char c);
  // True when only whitespace remains.
  bool AtEnd();
  size_t pos() const { return pos_; }

  // A string: the exact inverse of JsonEscape plus the other standard
  // escapes (\/ \b \f, and \uXXXX written as the code unit's UTF-8).
  // Unescaped control bytes are rejected.
  bool Read(std::string* out);
  // Integers reject a fraction, an exponent, a sign the type cannot hold
  // and overflow.
  bool Read(uint64_t* out);
  bool Read(int64_t* out);
  // A JSON number, or the nan / inf / -inf that printf's %g writes.
  bool Read(double* out);
  bool Read(bool* out);
  // Skips one value of any kind and nesting depth.
  bool SkipValue();

  // Reads `{"key": value, ...}`, calling on_member(key) with the cursor at
  // each value; on_member consumes the value, or returns false to fail.
  template <typename F>
  bool ReadObject(F&& on_member) {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    std::string key;
    do {
      if (!Read(&key) || !Consume(':') || !on_member(key)) return false;
    } while (Consume(','));
    return Consume('}');
  }

  // Reads `[value, ...]`, calling on_element() with the cursor at each
  // element.
  template <typename F>
  bool ReadArray(F&& on_element) {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!on_element()) return false;
    } while (Consume(','));
    return Consume(']');
  }

 private:
  void SkipWhitespace();
  // Consumes the run of number and literal bytes at the cursor.
  std::string_view Token();

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace scanraw

#endif  // SCANRAW_COMMON_JSON_H_
