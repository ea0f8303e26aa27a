#include "src/common/strings.h"

#include <cctype>
#include <cstdio>

namespace hcs {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  if (input.empty()) {
    return out;
  }
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string AsciiToLower(std::string_view input) {
  std::string out;
  AppendAsciiLower(&out, input);
  return out;
}

void AppendAsciiLower(std::string* out, std::string_view input) {
  out->reserve(out->size() + input.size());
  for (char c : input) {
    out->push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
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

Result<uint32_t> ParseU32(std::string_view s) {
  if (s.empty()) {
    return InvalidArgumentError("empty integer field");
  }
  uint32_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("non-digit in integer field: " +
                                  std::string(s));
    }
    uint32_t digit = static_cast<uint32_t>(c - '0');
    if (value > (0xffffffffu - digit) / 10) {
      return InvalidArgumentError("integer field overflows u32: " +
                                  std::string(s));
    }
    value = value * 10 + digit;
  }
  return value;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace hcs
