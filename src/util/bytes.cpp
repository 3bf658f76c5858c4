#include "util/bytes.hpp"

#include <cassert>

namespace accelring::util {

void Writer::patch_u32(size_t pos, uint32_t v) {
  assert(pos + 4 <= buf_.size());
  std::memcpy(buf_.data() + pos, &v, sizeof(v));
}

}  // namespace accelring::util
