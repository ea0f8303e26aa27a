// Clearinghouse three-part names: object:domain:organization (Oppen & Dalal
// 1983). Matching is case-insensitive. The Xerox side of the HCS testbed
// names everything this way.

#ifndef HCS_SRC_CH_NAME_H_
#define HCS_SRC_CH_NAME_H_

#include <string>
#include <string_view>

#include "src/common/result.h"

namespace hcs {

struct ChName {
  std::string object;
  std::string domain;
  std::string organization;

  // Parses "object:domain:organization". All three parts are required and
  // non-empty.
  HCS_NODISCARD static Result<ChName> Parse(const std::string& text);
  // Parse's check alone, on a view: OK exactly when Parse succeeds, else
  // Parse's error. For a name that passes, Parse(text).ToString() == text,
  // so a caller that only needs the text can skip building the ChName.
  HCS_NODISCARD static Status CheckForm(std::string_view text);

  // "object:domain:organization".
  std::string ToString() const;

  // The domain a name lives in, as "domain:organization".
  std::string DomainKey() const;

  friend bool operator==(const ChName& a, const ChName& b);
  friend bool operator!=(const ChName& a, const ChName& b) { return !(a == b); }
};

}  // namespace hcs

#endif  // HCS_SRC_CH_NAME_H_
