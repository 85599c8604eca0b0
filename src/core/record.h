// Record identity helpers. Records in a CVD are immutable: any change
// to a record's attributes yields a new record (new rid). The record
// manager detects reuse by hashing a row's data-attribute values.

#ifndef ORPHEUS_CORE_RECORD_H_
#define ORPHEUS_CORE_RECORD_H_

#include <cstdint>
#include <vector>

#include "relstore/chunk.h"

namespace orpheus::core {

using RecordId = int64_t;

// FNV-1a over the typed bytes of row `row` restricted to `cols`.
// Consistent with Value::Equals for the scalar types that appear as
// data attributes (NULLs hash as a distinct tag).
uint64_t HashRecord(const rel::Chunk& chunk, size_t row,
                    const std::vector<int>& cols);

// Test seam: HashRecord returns its hash ANDed with `mask` (all ones by
// default). A mask of 0 makes every record collide, so tests can show
// that record identity never rests on the hash alone.
void SetRecordHashMaskForTesting(uint64_t mask);

// True if the two rows agree on all listed columns (paired by index:
// cols_a[i] compares against cols_b[i]).
bool RecordsEqual(const rel::Chunk& a, size_t row_a, const std::vector<int>& cols_a,
                  const rel::Chunk& b, size_t row_b, const std::vector<int>& cols_b);

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_RECORD_H_
