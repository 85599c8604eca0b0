#include "expect.h"

#include <algorithm>
#include <cstdlib>

#include "common/str_util.h"

namespace perfbench {

bool Sums::operator==(const Sums& o) const {
  if (rows != o.rows) return false;
  for (int c = 0; c <= kAttrs; ++c) {
    if (col[c] != o.col[c]) return false;
  }
  return true;
}

std::string Sums::ToString() const {
  std::string s = "rows=" + std::to_string(rows) + " sum(k)=" + std::to_string(col[0]);
  for (int c = 1; c <= kAttrs; ++c) {
    s += " sum(a" + std::to_string(c) + ")=" + std::to_string(col[c]);
  }
  return s;
}

void ContentModel::LoadDataset(const orpheus::wl::Dataset& data) {
  orpheus::rel::Chunk all = data.AllRecordRows();  // rid, k, a1..
  const std::vector<int64_t>& keys = all.column(1).ints();
  content_.clear();
  content_.reserve(keys.size());
  for (size_t rid = 0; rid < keys.size(); ++rid) {
    content_.push_back({keys[rid], static_cast<int64_t>(rid), 0});
  }
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    SetVersion(v.vid, Cids(v.rids.begin(), v.rids.end()));
  }
}

int64_t ContentModel::Attr(uint32_t cid, int attr) const {
  const Content& c = content_[cid];
  if (attr == 0) return c.key;
  int64_t v = orpheus::wl::Dataset::AttrValue(c.grid, attr);
  return attr == 1 ? v + c.bump : v;
}

uint32_t ContentModel::AddFresh() {
  content_.push_back({next_fresh_key_++, next_fresh_grid_++, 0});
  return static_cast<uint32_t>(content_.size() - 1);
}

uint32_t ContentModel::AddBumped(uint32_t cid) {
  Content c = content_[cid];
  ++c.bump;
  content_.push_back(c);
  return static_cast<uint32_t>(content_.size() - 1);
}

void ContentModel::SetVersion(int64_t vid, Cids cids) {
  std::sort(cids.begin(), cids.end(), [this](uint32_t a, uint32_t b) {
    return content_[a].key < content_[b].key;
  });
  versions_[vid] = std::move(cids);
}

std::vector<int64_t> ContentModel::VersionIds() const {
  std::vector<int64_t> out;
  for (const auto& [vid, cids] : versions_) out.push_back(vid);
  return out;
}

std::vector<int64_t> ContentModel::VersionIdsBySize() const {
  std::vector<int64_t> out = VersionIds();
  std::stable_sort(out.begin(), out.end(), [this](int64_t a, int64_t b) {
    return versions_.at(a).size() < versions_.at(b).size();
  });
  return out;
}

Sums ContentModel::SumsOf(const Cids& cids) const {
  Sums s;
  s.rows = static_cast<int64_t>(cids.size());
  for (uint32_t cid : cids) {
    for (int c = 0; c <= kAttrs; ++c) s.col[c] += Attr(cid, c);
  }
  return s;
}

std::vector<int64_t> ContentModel::FilteredAgg(const Cids& cids, int filter_attr,
                                               int64_t bound) const {
  std::vector<int64_t> out = {0, 0, 0};
  for (uint32_t cid : cids) {
    if (Attr(cid, filter_attr) >= bound) continue;
    out[0] += 1;
    out[1] += Attr(cid, 1);
    out[2] += Attr(cid, 2);
  }
  return out;
}

std::vector<int64_t> ContentModel::ChangedKeys(const Cids& x, const Cids& y) const {
  std::vector<int64_t> out = {0, 0};
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    int64_t kx = Key(x[i]);
    int64_t ky = Key(y[j]);
    if (kx < ky) {
      ++i;
    } else if (ky < kx) {
      ++j;
    } else {
      if (Attr(x[i], 2) != Attr(y[j], 2)) {
        out[0] += 1;
        out[1] += Attr(x[i], 1);
      }
      ++i;
      ++j;
    }
  }
  return out;
}

Cids ContentModel::Merge(const Cids& a, const Cids& b) const {
  Cids out = a;
  size_t i = 0;
  for (uint32_t cid : b) {
    while (i < a.size() && Key(a[i]) < Key(cid)) ++i;
    if (i < a.size() && Key(a[i]) == Key(cid)) continue;
    out.push_back(cid);
  }
  std::sort(out.begin(), out.end(), [this](uint32_t p, uint32_t q) {
    return content_[p].key < content_[q].key;
  });
  return out;
}

orpheus::rel::Chunk ContentModel::Rows(const Cids& cids, const orpheus::rel::Schema& schema) const {
  orpheus::rel::Chunk rows(schema);
  for (int c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    int attr = name == "k" ? 0 : name[0] == 'a' ? std::atoi(name.c_str() + 1) : -1;
    orpheus::rel::Column& dst = rows.mutable_column(c);
    dst.mutable_ints().reserve(cids.size());
    for (uint32_t cid : cids) dst.AppendInt(attr < 0 ? 0 : Attr(cid, attr));
  }
  return rows;
}

Sums SumsOfChunk(const orpheus::rel::Chunk& chunk) {
  Sums s;
  s.rows = static_cast<int64_t>(chunk.num_rows());
  for (int c = 0; c < chunk.num_columns(); ++c) {
    const std::string& name = chunk.schema().column(c).name;
    int attr = name == "k" ? 0 : name[0] == 'a' ? std::atoi(name.c_str() + 1) : -1;
    if (attr < 0 || attr > kAttrs) continue;
    for (int64_t v : chunk.column(c).ints()) s.col[attr] += v;
  }
  return s;
}

bool ParseIntRows(const std::string& text,
                  std::vector<std::vector<int64_t>>* rows) {
  rows->clear();
  std::vector<std::string> lines = orpheus::Split(text, '\n');
  for (size_t l = 1; l < lines.size(); ++l) {  // line 0 is the header
    if (orpheus::Trim(lines[l]).empty()) continue;
    std::vector<int64_t> row;
    for (const std::string& cell : orpheus::Split(lines[l], '|')) {
      std::string t(orpheus::Trim(cell));
      // sum() over no rows is NULL; the count beside it tells the cases apart.
      if (t == "NULL") t = "0";
      char* end = nullptr;
      long long v = std::strtoll(t.c_str(), &end, 10);
      if (t.empty() || *end != '\0') return false;
      row.push_back(v);
    }
    rows->push_back(std::move(row));
  }
  return true;
}

std::string SumsSelectList() {
  std::string s = "count(*), sum(k)";
  for (int c = 1; c <= kAttrs; ++c) s += ", sum(a" + std::to_string(c) + ")";
  return s;
}

bool ParseSums(const std::string& text, Sums* out) {
  std::vector<std::vector<int64_t>> rows;
  if (!ParseIntRows(text, &rows) || rows.size() != 1 ||
      rows[0].size() != static_cast<size_t>(kAttrs + 2)) {
    return false;
  }
  out->rows = rows[0][0];
  for (int c = 0; c <= kAttrs; ++c) out->col[c] = rows[0][static_cast<size_t>(c + 1)];
  return true;
}

}  // namespace perfbench
