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

std::vector<float> TileMemory::remove(std::size_t i) {
  std::vector<float> data = std::move(slots_[i].data);
  used_ -= data.size() * sizeof(float);
  if (i + 1 != slots_.size()) slots_[i] = std::move(slots_.back());
  slots_.pop_back();
  return data;
}

void TileMemory::store(BufferKey key, std::vector<float> values) {
  const std::size_t i = find(key);
  const bool replacing = i < slots_.size();
  const std::uint64_t incoming = values.size() * sizeof(float);
  std::uint64_t after = used_ + incoming;
  if (replacing) after -= slots_[i].data.size() * sizeof(float);
  if (after > capacity_) {
    throw std::runtime_error(
        cat("tile memory overflow: need ", after, " bytes of ", capacity_,
            " storing '", to_string(key), "'"));
  }
  used_ = after;
  peak_ = peak_ > used_ ? peak_ : used_;
  if (replacing) {
    slots_[i].data = std::move(values);
  } else {
    slots_.push_back(Slot{key, std::move(values)});
  }
}

const std::vector<float>& TileMemory::load(BufferKey key) const {
  const std::size_t i = find(key);
  HSVD_REQUIRE(i < slots_.size(), cat("missing buffer '", to_string(key), "'"));
  return slots_[i].data;
}

std::vector<float> TileMemory::take(BufferKey key) {
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

std::vector<float> BufferPool::copy_of(std::span<const float> values) {
  std::vector<float> out;
  if (!free_.empty()) {
    out = std::move(free_.back());
    free_.pop_back();
  }
  out.assign(values.begin(), values.end());
  return out;
}

void BufferPool::release(std::vector<float> buffer) {
  if (buffer.capacity() != 0 && free_.size() < capacity_) {
    free_.push_back(std::move(buffer));
  }
}

}  // namespace hsvd::versal
