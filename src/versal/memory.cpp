#include "versal/memory.hpp"

#include <stdexcept>

#include "common/format.hpp"

namespace hsvd::versal {

std::string to_string(BufferKey key) {
  return cat("c", key.column(), ".t", key.task(), key.is_shadow() ? "#dma" : "");
}

void TileMemory::charge(BufferKey key, std::uint64_t bytes) {
  const std::uint64_t after = used_ + bytes;
  if (after > capacity_) {
    throw std::runtime_error(
        cat("tile memory overflow: need ", after, " bytes of ", capacity_,
            " storing '", to_string(key), "'"));
  }
  used_ = after;
  peak_ = peak_ > used_ ? peak_ : used_;
}

}  // namespace hsvd::versal
