#include "common/swap_remove_pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hetsched {

SwapRemovePool::SwapRemovePool(std::uint64_t n) {
  if (n > kMaxCapacity) {
    throw std::length_error(
        "SwapRemovePool: capacity would overflow the uint32 index "
        "(use TaskPool, which switches to the compact layout)");
  }
  ids_.resize(n);
  position_.resize(n);
  size_ = n;
  fill_identity();
}

void SwapRemovePool::throw_empty(const char* what) {
  throw std::logic_error(what);
}

void SwapRemovePool::fill_identity() noexcept {
  const std::uint64_t n = position_.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    ids_[i] = static_cast<std::uint32_t>(i);
    position_[i] = static_cast<std::uint32_t>(i);
  }
  index_dirty_ = false;
}

void SwapRemovePool::reindex() const noexcept {
  for (auto& p : position_) p = kAbsent;
  for (std::uint64_t pos = 0; pos < size_; ++pos) {
    position_[ids_[pos]] = static_cast<std::uint32_t>(pos);
  }
  index_dirty_ = false;
}

bool SwapRemovePool::insert(std::uint64_t id) {
  if (id >= position_.size()) {
    throw std::out_of_range("SwapRemovePool::insert: id beyond capacity");
  }
  if (contains(id)) return false;
  position_[id] = static_cast<std::uint32_t>(size_);
  ids_[size_] = static_cast<std::uint32_t>(id);
  ++size_;
  ahead_size_ = kNoAhead;
  if (id < first_cursor_) first_cursor_ = id;
  return true;
}

std::uint64_t SwapRemovePool::pop_first() {
  if (size_ == 0) {
    throw std::logic_error("SwapRemovePool::pop_first: pool is empty");
  }
  if (index_dirty_) reindex();
  // Non-empty + cursor-is-a-lower-bound (insert rewinds it) guarantee a
  // present id before the end, so the scan cannot run off the array.
  while (position_[first_cursor_] == kAbsent) {
    ++first_cursor_;
    assert(first_cursor_ < position_.size());
  }
  const std::uint64_t id = first_cursor_;
  remove(id);
  return id;
}

void SwapRemovePool::refill_present(const DynamicBitset& removed) noexcept {
  assert(removed.size() == position_.size());
  const std::uint64_t cap = position_.size();
  std::fill(position_.begin(), position_.end(), kAbsent);
  std::uint64_t out = 0;
  const std::uint64_t words = removed.word_count();
  for (std::uint64_t w = 0; w < words; ++w) {
    std::uint64_t present = ~removed.word(w);
    const std::uint64_t word_base = w << 6;
    if (word_base + 64 > cap) {  // clip phantom bits past the capacity
      present &= (1ull << (cap - word_base)) - 1;
    }
    while (present != 0) {
      const auto id = static_cast<std::uint32_t>(
          word_base + static_cast<std::uint64_t>(std::countr_zero(present)));
      ids_[out] = id;
      position_[id] = static_cast<std::uint32_t>(out);
      ++out;
      present &= present - 1;
    }
  }
  size_ = out;
  first_cursor_ = 0;
  ahead_size_ = kNoAhead;
  index_dirty_ = false;
}

void SwapRemovePool::reset() noexcept {
  size_ = position_.size();
  first_cursor_ = 0;
  ahead_size_ = kNoAhead;
  fill_identity();
}

std::vector<std::uint64_t> SwapRemovePool::ids() const {
  std::vector<std::uint64_t> out(size_);
  for (std::uint64_t pos = 0; pos < size_; ++pos) out[pos] = ids_[pos];
  return out;
}

}  // namespace hetsched
