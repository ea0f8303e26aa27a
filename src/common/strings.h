// Small string utilities shared across the HCS tree. Only what the code base
// actually needs — this is not a general-purpose strings library.

#ifndef HCS_SRC_COMMON_STRINGS_H_
#define HCS_SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace hcs {

// Splits `input` on `sep`. Adjacent separators yield empty fields; an empty
// input yields an empty vector.
std::vector<std::string> StrSplit(std::string_view input, char sep);

// Joins `parts` with `sep` between adjacent elements.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// ASCII-only case folding (name services in this tree are case-insensitive
// in the DNS tradition).
std::string AsciiToLower(std::string_view input);
// Appends `input` to `*out`, case-folded the same way, with no temporary.
void AppendAsciiLower(std::string* out, std::string_view input);

// True when `s` starts with / ends with the given affix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Parses a non-negative decimal integer fitting in uint32_t. Rejects empty
// input, signs, non-digits, and overflow with kInvalidArgument. Unlike
// std::stoul this never throws, so it is safe on wire-derived text (MX
// rdata, zone files, binding-file fields).
HCS_NODISCARD Result<uint32_t> ParseU32(std::string_view s);

}  // namespace hcs

#endif  // HCS_SRC_COMMON_STRINGS_H_
