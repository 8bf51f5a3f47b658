// Small string helpers shared by the library, tools and benchmarks.
#ifndef SCANRAW_COMMON_STRING_UTIL_H_
#define SCANRAW_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scanraw {

// "1.5 GB", "640 KB", ... (powers of 1024).
std::string HumanBytes(uint64_t bytes);

// "12.34 s", "56.7 ms", ...
std::string HumanDuration(double seconds);

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter);

// Fast unsigned decimal append (no locale, no allocation churn).
void AppendUint64(std::string* out, uint64_t value);

// Value of one hex digit in either case, or -1.
int HexDigitValue(char c);

// Line-record field codec: '%' and every byte isspace() accepts become %XX,
// and the empty string becomes "%e", so the result is one token that
// `istream >> std::string` reads back whole. PercentUnescape decodes %XX in
// either hex case and "%e", and keeps any other '%' literally.
std::string PercentEscape(std::string_view s);
std::string PercentUnescape(std::string_view s);

// printf-style into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace scanraw

#endif  // SCANRAW_COMMON_STRING_UTIL_H_
