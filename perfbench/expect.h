// The output oracle: the benchmark's own model of every version's
// content, derived from the generator and from the edits the benchmark
// makes, never from the engine's answers.
//
// A record's content is (key, generator record id, bump): column k is
// the key, attribute a_j is wl::Dataset::AttrValue(grid, j), and a1
// additionally carries `bump` (each benchmark UPDATE adds 1). A
// version is a list of content ids sorted by key.

#ifndef PERFBENCH_EXPECT_H_
#define PERFBENCH_EXPECT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relstore/chunk.h"
#include "workload/generator.h"

namespace perfbench {

inline constexpr int kAttrs = 20;  // a1..a20 beside the key k

// Row count plus per-column sums (index 0 is k, j is a_j).
struct Sums {
  int64_t rows = 0;
  int64_t col[kAttrs + 1] = {};
  bool operator==(const Sums& o) const;
  std::string ToString() const;
};

using Cids = std::vector<uint32_t>;

class ContentModel {
 public:
  // Registers every record of `data` (content id == generator rid) and
  // every generator version under its own vid.
  void LoadDataset(const orpheus::wl::Dataset& data);

  int64_t Key(uint32_t cid) const { return content_[cid].key; }
  // attr 0 is k; 1..kAttrs are a_j.
  int64_t Attr(uint32_t cid, int attr) const;

  // A fresh record: new key (above every generator key) and content.
  uint32_t AddFresh();
  // Same key, a1 + 1.
  uint32_t AddBumped(uint32_t cid);

  void SetVersion(int64_t vid, Cids cids);  // sorts by key
  bool HasVersion(int64_t vid) const { return versions_.count(vid) > 0; }
  const Cids& Version(int64_t vid) const { return versions_.at(vid); }
  std::vector<int64_t> VersionIds() const;
  // Version ids ordered by row count (ties by vid): picking from this
  // list with a Sweep stratifies picks by version size.
  std::vector<int64_t> VersionIdsBySize() const;

  Sums SumsOf(const Cids& cids) const;
  // Rows with a_filter_attr < bound: {count, sum(a1), sum(a2)}.
  std::vector<int64_t> FilteredAgg(const Cids& cids, int filter_attr,
                                   int64_t bound) const;
  // Keys present in both versions whose a2 differs: {count, sum(x.a1)}.
  std::vector<int64_t> ChangedKeys(const Cids& x, const Cids& y) const;
  // Merging checkout with precedence: all of a, then b's keys absent
  // from a.
  Cids Merge(const Cids& a, const Cids& b) const;

  // Staged-table rows for `cids` in `schema` (rid column left 0).
  orpheus::rel::Chunk Rows(const Cids& cids, const orpheus::rel::Schema& schema) const;

 private:
  struct Content {
    int64_t key;
    int64_t grid;
    int64_t bump;
  };
  std::vector<Content> content_;
  std::map<int64_t, Cids> versions_;
  int64_t next_fresh_key_ = int64_t{1} << 40;
  int64_t next_fresh_grid_ = int64_t{1} << 41;
};

// Sums of an engine table's rows (columns matched by name).
Sums SumsOfChunk(const orpheus::rel::Chunk& chunk);

// Parses the text rendering of a result (header line, then rows of
// " | "-separated integers; NULL reads 0). Fails on a non-integer cell.
bool ParseIntRows(const std::string& text,
                  std::vector<std::vector<int64_t>>* rows);

// The SQL select list and parser for Sums: "count(*), sum(k), sum(a1)...".
std::string SumsSelectList();
bool ParseSums(const std::string& text, Sums* out);

}  // namespace perfbench

#endif  // PERFBENCH_EXPECT_H_
