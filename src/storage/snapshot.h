// Copyright 2026 The DataCell Authors.
//
// Consistent checkpoints of factory progress (docs/DURABILITY.md). A
// snapshot deliberately stores only what the WAL tail cannot recompute —
// per-query progress cursors, shared-node origins, and the basket
// horizons the WALs were last truncated to. Windows, rolling join-hash
// contents and grid partial caches are all rebuilt by replaying basket
// rows through the normal append path (the fuzzy-checkpoint tradeoff
// from Li et al.'s consistent-snapshot survey: tiny checkpoint writes,
// recovery cost proportional to the retained WAL tail).
//
// Snapshots are written tmp + fsync + atomic rename, and the previous
// snapshot is kept as snapshot.prev.dc: WALs are only truncated to the
// *previous* checkpoint's horizons, so either retained snapshot pairs
// with a WAL tail that covers it.

#ifndef DATACELL_STORAGE_SNAPSHOT_H_
#define DATACELL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace dc {
namespace storage {

/// The recomputation-free progress of one factory: where each input
/// started (origin row seqs), which emission is due next, the per-batch
/// cursor, and how many emissions were produced. Captured by
/// Factory::SnapshotProgress and re-applied (before the factory ever
/// fires) by Factory::RestoreProgress.
struct FactoryProgress {
  std::vector<uint64_t> origins;
  bool has_next_emission = false;
  int64_t next_emission = 0;
  uint64_t batch_cursor = 0;
  uint64_t emissions = 0;
};

struct SnapshotBasket {
  std::string name;
  uint64_t horizon = 0;  // DropHorizon at checkpoint time
};

struct SnapshotQuery {
  uint64_t token = 0;  // catalog-log submit token
  FactoryProgress progress;
};

struct SnapshotNode {
  std::string label;  // deterministic "<stream>#<ordinal>" node label
  uint64_t origin_seq = 0;
};

struct SnapshotData {
  uint64_t checkpoint_id = 0;
  std::vector<SnapshotBasket> baskets;
  std::vector<SnapshotQuery> queries;
  std::vector<SnapshotNode> nodes;
};

std::string SnapshotPath(const std::string& dir);
std::string SnapshotPrevPath(const std::string& dir);

/// Writes `dir`/snapshot.dc atomically: tmp file + fsync + rotate the
/// current snapshot to snapshot.prev.dc + rename tmp into place. A crash
/// at any point leaves at least one complete snapshot on disk.
Status WriteSnapshot(WalEnv* env, const std::string& dir,
                     const SnapshotData& data,
                     monitor::Counter* bytes_counter = nullptr);

/// Loads the newest complete snapshot: snapshot.dc, falling back to
/// snapshot.prev.dc if the current one is torn or corrupt. NotFound when
/// neither file exists (a cold start); Internal when snapshots exist but
/// none parses (unrecoverable — the WAL tail alone is not sufficient
/// once a checkpoint has truncated it).
Result<SnapshotData> LoadSnapshot(const std::string& dir);

}  // namespace storage
}  // namespace dc

#endif  // DATACELL_STORAGE_SNAPSHOT_H_
