#include "core/record.h"

#include <atomic>

namespace orpheus::core {

namespace {

std::atomic<uint64_t> g_hash_mask{~uint64_t{0}};

inline void HashBytes(const void* data, size_t len, uint64_t* h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

}  // namespace

uint64_t HashRecord(const rel::Chunk& chunk, size_t row,
                    const std::vector<int>& cols) {
  uint64_t h = 1469598103934665603ULL;
  for (int c : cols) {
    const rel::Column& col = chunk.column(c);
    if (col.IsNull(row)) {
      unsigned char tag = 0xff;
      HashBytes(&tag, 1, &h);
      continue;
    }
    switch (col.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool: {
        int64_t v = col.ints()[row];
        HashBytes(&v, sizeof(v), &h);
        break;
      }
      case rel::DataType::kDouble: {
        double v = col.doubles()[row];
        HashBytes(&v, sizeof(v), &h);
        break;
      }
      case rel::DataType::kString: {
        const std::string& s = col.strings()[row];
        size_t len = s.size();
        HashBytes(&len, sizeof(len), &h);
        HashBytes(s.data(), s.size(), &h);
        break;
      }
      case rel::DataType::kIntArray: {
        const rel::IntArray& a = col.arrays()[row];
        size_t len = a.size();
        HashBytes(&len, sizeof(len), &h);
        HashBytes(a.data(), a.size() * sizeof(int64_t), &h);
        break;
      }
      case rel::DataType::kNull:
        break;
    }
  }
  return h & g_hash_mask.load(std::memory_order_relaxed);
}

void SetRecordHashMaskForTesting(uint64_t mask) {
  g_hash_mask.store(mask, std::memory_order_relaxed);
}

bool RecordsEqual(const rel::Chunk& a, size_t row_a, const std::vector<int>& cols_a,
                  const rel::Chunk& b, size_t row_b, const std::vector<int>& cols_b) {
  if (cols_a.size() != cols_b.size()) return false;
  for (size_t i = 0; i < cols_a.size(); ++i) {
    rel::Value va = a.Get(row_a, cols_a[i]);
    rel::Value vb = b.Get(row_b, cols_b[i]);
    if (va.is_null() && vb.is_null()) continue;
    if (!va.Equals(vb)) return false;
  }
  return true;
}

}  // namespace orpheus::core
