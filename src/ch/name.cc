#include "src/ch/name.h"

#include "src/common/strings.h"

namespace hcs {

Status ChName::CheckForm(std::string_view text) {
  // Exactly two colons, with a non-empty part before, between and after.
  const size_t first = text.find(':');
  const size_t second = first == std::string_view::npos ? first : text.find(':', first + 1);
  if (first == 0 || second == std::string_view::npos || second == first + 1 ||
      second + 1 == text.size() || text.find(':', second + 1) != std::string_view::npos) {
    return InvalidArgumentError(
        std::string("Clearinghouse names have the form object:domain:organization, got: ")
            .append(text));
  }
  return Status::Ok();
}

Result<ChName> ChName::Parse(const std::string& text) {
  HCS_RETURN_IF_ERROR(CheckForm(text));
  const size_t first = text.find(':');
  const size_t second = text.find(':', first + 1);
  ChName name;
  name.object = text.substr(0, first);
  name.domain = text.substr(first + 1, second - first - 1);
  name.organization = text.substr(second + 1);
  return name;
}

std::string ChName::ToString() const { return object + ":" + domain + ":" + organization; }

std::string ChName::DomainKey() const {
  return AsciiToLower(domain) + ":" + AsciiToLower(organization);
}

bool operator==(const ChName& a, const ChName& b) {
  return EqualsIgnoreCase(a.object, b.object) && EqualsIgnoreCase(a.domain, b.domain) &&
         EqualsIgnoreCase(a.organization, b.organization);
}

}  // namespace hcs
