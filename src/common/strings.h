// Small string utilities shared across the HCS tree. Only what the code base
// actually needs — this is not a general-purpose strings library.

#ifndef HCS_SRC_COMMON_STRINGS_H_
#define HCS_SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <cstring>
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
// in the DNS tradition): 'A'-'Z' become 'a'-'z', every other byte is kept.
// The same mapping as std::tolower in the "C" locale, which is the only
// locale this tree runs in, without its per-character call.
constexpr char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
std::string AsciiToLower(std::string_view input);
// Appends `input` to `*out`, case-folded the same way, with no temporary.
void AppendAsciiLower(std::string* out, std::string_view input);

// A short key assembled in place for a cache probe: appending costs no heap
// allocation until the key outgrows the inline buffer, after which it lives
// in a std::string. Probe with view(); make a std::string from it only to
// store the key.
class InlineKey {
 public:
  InlineKey& Append(std::string_view text) {
    if (!text.empty()) {  // an empty view's data() may be null, which memcpy rejects
      std::memcpy(Grow(text.size()), text.data(), text.size());
    }
    return *this;
  }
  InlineKey& AppendLower(std::string_view text) {
    char* p = Grow(text.size());
    for (char c : text) {
      *p++ = AsciiLower(c);
    }
    return *this;
  }
  InlineKey& Push(char c) {
    *Grow(1) = c;
    return *this;
  }

  std::string_view view() const {
    return size_ <= kInlineBytes ? std::string_view(inline_, size_) : std::string_view(spill_);
  }

 private:
  static constexpr size_t kInlineBytes = 128;

  // Extends the key by `n` bytes and returns where they start.
  char* Grow(size_t n) {
    const size_t at = size_;
    size_ += n;
    if (size_ <= kInlineBytes) {
      return inline_ + at;
    }
    if (at <= kInlineBytes) {
      spill_.assign(inline_, at);
    }
    spill_.resize(size_);
    return spill_.data() + at;
  }

  char inline_[kInlineBytes];
  size_t size_ = 0;
  std::string spill_;  // the key, once it is longer than kInlineBytes
};

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
