// Test-only oracle for live-vs-recovered comparisons: the bytes a
// checkpoint persists for an engine — every table section, in
// ListTables() order, then the engine metadata. Two engines with equal
// PersistedState() would write identical segments and MANIFEST meta.

#ifndef ORPHEUS_TESTS_PERSISTED_STATE_H_
#define ORPHEUS_TESTS_PERSISTED_STATE_H_

#include <string>

#include "core/orpheus.h"
#include "storage/io_util.h"
#include "storage/snapshot.h"

namespace orpheus {

inline std::string PersistedState(core::OrpheusDB& db) {
  storage::BinaryWriter w;
  for (const std::string& name : db.db()->ListTables()) {
    storage::SnapshotCodec::EncodeTableSection(*db.db()->GetTable(name).value(),
                                               &w);
  }
  storage::SnapshotCodec::EncodeMeta(db, &w);
  return w.Release();
}

}  // namespace orpheus

#endif  // ORPHEUS_TESTS_PERSISTED_STATE_H_
