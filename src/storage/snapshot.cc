// Copyright 2026 The DataCell Authors.

#include "storage/snapshot.h"

#include <utility>

#include "util/string_util.h"

namespace dc {
namespace storage {

namespace {

/// Snapshot record tags (30-39; basket/catalog logs use 1-19).
enum class SnapTag : uint8_t {
  kHeader = 30,  // {checkpoint_id u64}
  kBasket = 31,  // {name str, horizon u64}
  kQuery = 32,   // {token u64, progress}
  kNode = 33,    // {label str, origin u64}
  kFooter = 39,  // {records-before-footer u64} — completeness check
};

WalEncoder SnapRecord(SnapTag tag) {
  return WalEncoder(static_cast<uint8_t>(tag));
}

Result<SnapshotData> ParseSnapshot(const WalScan& scan) {
  if (!scan.clean_tail || scan.records.empty()) {
    return Status::ParseError("snapshot: torn or empty file");
  }
  SnapshotData data;
  bool saw_header = false;
  bool saw_footer = false;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const WalRecord& rec = scan.records[i];
    const auto tag = static_cast<SnapTag>(rec.type);
    WalDecoder dec(rec.body);
    switch (tag) {
      case SnapTag::kHeader:
        data.checkpoint_id = dec.GetU64();
        saw_header = true;
        break;
      case SnapTag::kBasket: {
        SnapshotBasket b;
        b.name = dec.GetStr();
        b.horizon = dec.GetU64();
        data.baskets.push_back(std::move(b));
        break;
      }
      case SnapTag::kQuery: {
        SnapshotQuery q;
        q.token = dec.GetU64();
        const uint32_t n = dec.GetU32();
        if (n > 4096) return Status::ParseError("snapshot: origin overflow");
        q.progress.origins.reserve(n);
        for (uint32_t j = 0; j < n; ++j)
          q.progress.origins.push_back(dec.GetU64());
        q.progress.has_next_emission = dec.GetU8() != 0;
        q.progress.next_emission = dec.GetI64();
        q.progress.batch_cursor = dec.GetU64();
        q.progress.emissions = dec.GetU64();
        data.queries.push_back(std::move(q));
        break;
      }
      case SnapTag::kNode: {
        SnapshotNode nd;
        nd.label = dec.GetStr();
        nd.origin_seq = dec.GetU64();
        data.nodes.push_back(std::move(nd));
        break;
      }
      case SnapTag::kFooter: {
        const uint64_t count = dec.GetU64();
        if (count != i) {
          return Status::ParseError("snapshot: footer count mismatch");
        }
        if (i + 1 != scan.records.size()) {
          return Status::ParseError("snapshot: records after footer");
        }
        saw_footer = true;
        break;
      }
      default:
        return Status::ParseError("snapshot: unknown record tag");
    }
    if (!dec.ok()) return Status::ParseError("snapshot: malformed record");
  }
  if (!saw_header || !saw_footer) {
    return Status::ParseError("snapshot: incomplete (missing header/footer)");
  }
  return data;
}

}  // namespace

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.dc";
}

std::string SnapshotPrevPath(const std::string& dir) {
  return dir + "/snapshot.prev.dc";
}

Status WriteSnapshot(WalEnv* env, const std::string& dir,
                     const SnapshotData& data,
                     monitor::Counter* bytes_counter) {
  std::string blob(kWalMagic, sizeof(kWalMagic));
  uint64_t records = 0;
  auto add = [&](WalEncoder record) {
    WalFrame frame = record.TakeFrame();
    blob += frame.Seal();
    ++records;
  };

  {
    WalEncoder enc = SnapRecord(SnapTag::kHeader);
    enc.PutU64(data.checkpoint_id);
    add(std::move(enc));
  }
  for (const SnapshotBasket& b : data.baskets) {
    WalEncoder enc = SnapRecord(SnapTag::kBasket);
    enc.PutStr(b.name);
    enc.PutU64(b.horizon);
    add(std::move(enc));
  }
  for (const SnapshotQuery& q : data.queries) {
    WalEncoder enc = SnapRecord(SnapTag::kQuery);
    enc.PutU64(q.token);
    enc.PutU32(static_cast<uint32_t>(q.progress.origins.size()));
    for (uint64_t o : q.progress.origins) enc.PutU64(o);
    enc.PutU8(q.progress.has_next_emission ? 1 : 0);
    enc.PutI64(q.progress.next_emission);
    enc.PutU64(q.progress.batch_cursor);
    enc.PutU64(q.progress.emissions);
    add(std::move(enc));
  }
  for (const SnapshotNode& n : data.nodes) {
    WalEncoder enc = SnapRecord(SnapTag::kNode);
    enc.PutStr(n.label);
    enc.PutU64(n.origin_seq);
    add(std::move(enc));
  }
  {
    WalEncoder enc = SnapRecord(SnapTag::kFooter);
    enc.PutU64(records);
    add(std::move(enc));
  }

  const std::string current = SnapshotPath(dir);
  const std::string prev = SnapshotPrevPath(dir);
  const std::string tmp = current + ".tmp";
  {
    DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> f,
                        env->Open(tmp, /*truncate=*/true));
    DC_RETURN_NOT_OK(f->Append(blob));
    DC_RETURN_NOT_OK(f->Sync());
    DC_RETURN_NOT_OK(f->Close());
  }
  // Rotate: the old current becomes the fallback, then the new snapshot
  // lands atomically. A crash between the renames leaves current absent
  // but prev complete; LoadSnapshot handles both orders. The rotation is
  // durable only once the directory entries are fsynced — without the
  // SyncDir, power loss can roll both renames back even though the
  // snapshot contents hit disk.
  if (env->FileExists(current)) {
    DC_RETURN_NOT_OK(env->Rename(current, prev));
  }
  DC_RETURN_NOT_OK(env->Rename(tmp, current));
  DC_RETURN_NOT_OK(env->SyncDir(dir));
  if (bytes_counter != nullptr) bytes_counter->Add(blob.size());
  return Status::OK();
}

Result<SnapshotData> LoadSnapshot(const std::string& dir) {
  const std::string current = SnapshotPath(dir);
  const std::string prev = SnapshotPrevPath(dir);
  bool any_exists = false;
  for (const std::string& path : {current, prev}) {
    Result<WalScan> scan = ReadWalFile(path);
    if (!scan.ok()) continue;  // missing — try the fallback
    any_exists = true;
    Result<SnapshotData> parsed = ParseSnapshot(scan.value());
    if (parsed.ok()) return parsed;
  }
  if (!any_exists) {
    return Status::NotFound("no snapshot (cold start)");
  }
  // A snapshot was written at some point (so WALs may be truncated) but
  // none parses: replaying the WAL tail alone could silently produce
  // wrong emissions, so refuse instead.
  return Status::Internal("all snapshots corrupt; refusing partial recovery");
}

}  // namespace storage
}  // namespace dc
