#include "versal/memory.hpp"

#include <stdexcept>

#include "common/format.hpp"

namespace hsvd::versal {

std::string to_string(BufferKey key) {
  return cat("c", key.column(), ".t", key.task(), key.is_shadow() ? "#dma" : "");
}

std::size_t TileMemory::find(BufferKey key) const {
  std::size_t i = 0;
  while (i < slots_.size() && slots_[i].key != key) ++i;
  return i;
}

Buffer TileMemory::remove(std::size_t i) {
  const Buffer buffer = slots_[i].buffer;
  used_ -= buffer.bytes;
  if (i + 1 != slots_.size()) slots_[i] = slots_.back();
  slots_.pop_back();
  return buffer;
}

void TileMemory::store(BufferKey key, Buffer buffer) {
  const std::size_t i = find(key);
  const bool replacing = i < slots_.size();
  std::uint64_t after = used_ + buffer.bytes;
  if (replacing) after -= slots_[i].buffer.bytes;
  if (after > capacity_) {
    throw std::runtime_error(
        cat("tile memory overflow: need ", after, " bytes of ", capacity_,
            " storing '", to_string(key), "'"));
  }
  used_ = after;
  peak_ = peak_ > used_ ? peak_ : used_;
  if (replacing) {
    slots_[i].buffer = buffer;
  } else {
    slots_.push_back(Slot{key, buffer});
  }
}

Buffer TileMemory::load(BufferKey key) const {
  const std::size_t i = find(key);
  HSVD_REQUIRE(i < slots_.size(), cat("missing buffer '", to_string(key), "'"));
  return slots_[i].buffer;
}

Buffer TileMemory::take(BufferKey key) {
  const std::size_t i = find(key);
  HSVD_REQUIRE(i < slots_.size(), cat("missing buffer '", to_string(key), "'"));
  return remove(i);
}

void TileMemory::erase(BufferKey key) {
  const std::size_t i = find(key);
  if (i < slots_.size()) remove(i);
}

std::size_t TileMemory::erase_if(const std::function<bool(BufferKey)>& pred) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < slots_.size();) {
    if (pred(slots_[i].key)) {
      remove(i);  // the last slot moves into i: re-check it
      ++removed;
    } else {
      ++i;
    }
  }
  return removed;
}

}  // namespace hsvd::versal
