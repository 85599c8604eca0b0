#include "relstore/int_postings.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace orpheus::rel {

namespace {

// Filter bits allowed per indexed row: 64 bits = 8 bytes of bitmap.
constexpr uint64_t kFilterBitsPerRow = 64;

}  // namespace

IntPostings::IntPostings(const Column& keys) {
  const std::vector<int64_t>& values = keys.ints();
  const bool nullable = keys.has_null_bitmap();
  const size_t n = values.size();
  assert(n <= UINT32_MAX);

  // Pass 1: count indexed rows and find the key span.
  size_t indexed = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    if (nullable && keys.IsNull(i)) continue;
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
    ++indexed;
  }
  if (indexed == 0) return;
  min_ = lo;
  span_ = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);

  size_t capacity = 16;
  shift_ = 60;
  while (capacity < indexed + indexed / 2) {  // load factor <= 2/3
    capacity *= 2;
    --shift_;
  }
  slots_.resize(capacity);
  const size_t mask = capacity - 1;
  if (span_ < kFilterBitsPerRow * indexed) {
    filter_.assign(static_cast<size_t>(span_ / 64) + 1, 0);
  }

  // Pass 2: claim a slot (and a filter bit) per distinct key and count
  // its rows.
  for (size_t i = 0; i < n; ++i) {
    if (nullable && keys.IsNull(i)) continue;
    const int64_t k = values[i];
    size_t s = SlotOf(k);
    while (slots_[s].count != 0 && slots_[s].key != k) s = (s + 1) & mask;
    Slot& slot = slots_[s];
    if (slot.count == 0) {
      slot.key = k;
      ++num_keys_;
      if (!filter_.empty()) {
        const uint64_t offset = static_cast<uint64_t>(k) - static_cast<uint64_t>(min_);
        filter_[offset >> 6] |= uint64_t{1} << (offset & 63);
      }
    }
    ++slot.count;
  }

  // Prefix-sum the counts into each key's end, then fill rows from the
  // last row down, moving each key's cursor back to its start. Rows
  // land in ascending order within every key. The re-probe needs no
  // empty-slot check: every key is present, and linear probing leaves
  // no empty slot between a key's home and its slot.
  uint32_t end = 0;
  for (Slot& slot : slots_) {
    end += slot.count;
    slot.start = end;
  }
  rows_.resize(indexed);
  for (size_t i = n; i-- > 0;) {
    if (nullable && keys.IsNull(i)) continue;
    const int64_t k = values[i];
    size_t s = SlotOf(k);
    while (slots_[s].key != k) s = (s + 1) & mask;
    rows_[--slots_[s].start] = static_cast<uint32_t>(i);
  }
}

}  // namespace orpheus::rel
