// IntPostings: an immutable hash table from an INT key to the row
// positions that hold it. It is the build side of the executor's
// single-INT-key hash join and the storage behind Table's INT indexes.
//
// Layout. Open-addressing slots {key, start, count} (linear probing,
// power-of-two capacity, load factor at most 2/3) over one CSR row
// array: a key's rows are rows_[start, start + count). The build
// counts every key in one pass, prefix-sums the counts into offsets,
// then places every row in a second pass. Each key's posting list is
// in ascending row order, whatever the key order.
//
// Range filter. Find first rejects keys outside the build keys'
// [min, max]. When that span is small relative to the number of
// indexed rows (a bitmap of at most 8 bytes per indexed row), the
// table also keeps one bit per value in the span, set for every
// present key; Find tests that bit before hashing, so a miss inside
// the span usually costs one bit test. The span arithmetic is
// unsigned, so INT64_MIN/INT64_MAX keys cannot overflow it.
//
// NULL rows are never indexed (SQL equi-join semantics: NULL matches
// nothing), so a NULL probe key must be skipped by the caller.
//
// Determinism: the build is serial and the layout is a pure function
// of the key column; posting order is ascending row order. Results
// therefore cannot depend on the executor's thread count.
//
// Thread-safety: immutable after construction; Find is a const read
// and safe from any number of threads at once.

#ifndef ORPHEUS_RELSTORE_INT_POSTINGS_H_
#define ORPHEUS_RELSTORE_INT_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relstore/column.h"

namespace orpheus::rel {

class IntPostings {
 public:
  // A key's row positions in ascending order; empty on a miss. Valid
  // until the IntPostings it came from is destroyed or reassigned.
  class Rows {
   public:
    Rows() = default;
    Rows(const uint32_t* begin, const uint32_t* end) : begin_(begin), end_(end) {}
    const uint32_t* begin() const { return begin_; }
    const uint32_t* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    uint32_t operator[](size_t i) const { return begin_[i]; }

   private:
    const uint32_t* begin_ = nullptr;
    const uint32_t* end_ = nullptr;
  };

  // An empty table: every Find misses.
  IntPostings() = default;

  // Indexes every non-NULL row of `keys`, an INT (or BOOL) column.
  explicit IntPostings(const Column& keys);

  Rows Find(int64_t key) const {
    if (slots_.empty()) return {};
    const uint64_t offset = static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
    if (offset > span_) return {};
    if (!filter_.empty() && ((filter_[offset >> 6] >> (offset & 63)) & 1) == 0) {
      return {};
    }
    const size_t mask = slots_.size() - 1;
    for (size_t s = SlotOf(key);; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.count == 0) return {};
      if (slot.key == key) {
        const uint32_t* first = rows_.data() + slot.start;
        return {first, first + slot.count};
      }
    }
  }

  size_t num_keys() const { return num_keys_; }      // distinct keys
  size_t num_rows() const { return rows_.size(); }   // indexed rows
  bool has_range_filter() const { return !filter_.empty(); }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t start = 0;
    uint32_t count = 0;  // 0 marks an empty slot
  };

  size_t SlotOf(int64_t key) const {
    // Fibonacci hashing: the high bits of the product mix every key
    // bit, so dense or strided keys spread over the table.
    return static_cast<size_t>((static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> rows_;
  std::vector<uint64_t> filter_;  // bit (key - min_) per present key
  int64_t min_ = 0;
  uint64_t span_ = 0;  // max - min, as unsigned
  unsigned shift_ = 64;
  size_t num_keys_ = 0;
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_INT_POSTINGS_H_
