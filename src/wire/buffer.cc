#include "src/wire/buffer.h"

#include "src/common/strings.h"

namespace hcs {

Status BufferReader::Underrun(size_t n) const {
  return ProtocolError(
      StrFormat("buffer underrun: need %zu bytes at offset %zu of %zu", n, pos_, size_));
}

}  // namespace hcs
