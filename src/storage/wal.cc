// Copyright 2026 The DataCell Authors.

#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "monitor/trace.h"
#include "util/string_util.h"

namespace dc {
namespace storage {

namespace {

/// Records larger than this are treated as corruption (a torn length
/// field must not trigger a gigabyte allocation).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/// Parent directory of `path` ("." when there is no separator), for the
/// directory fsyncs that make renames and file creations durable.
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

/// Slicing-by-16 tables for the reflected IEEE polynomial: kCrcTables[0]
/// is the classic byte-at-a-time table, kCrcTables[k][b] the CRC of byte
/// b followed by k zero bytes, so one step folds 16 input bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 16; n -= 16, p += 16) {
    // Little-endian words: the first byte sits lowest and has the most
    // bytes left to travel, so it takes the highest table.
    const uint32_t a = Load32(p) ^ c;
    const uint32_t b = Load32(p + 4);
    const uint32_t d = Load32(p + 8);
    const uint32_t e = Load32(p + 12);
    c = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^ t[13][(a >> 16) & 0xFF] ^
        t[12][a >> 24] ^ t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
        t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^ t[7][d & 0xFF] ^
        t[6][(d >> 8) & 0xFF] ^ t[5][(d >> 16) & 0xFF] ^ t[4][d >> 24] ^
        t[3][e & 0xFF] ^ t[2][(e >> 8) & 0xFF] ^ t[1][(e >> 16) & 0xFF] ^
        t[0][e >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --------------------------------------------------------------------------
// Default (real filesystem) environment.
// --------------------------------------------------------------------------

namespace {

class PosixWalFile : public WalFile {
 public:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  ~PosixWalFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(
            StrFormat("wal write failed: %s", std::strerror(errno)));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(
          StrFormat("wal fsync failed: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return Status::Internal(
          StrFormat("wal close failed: %s", std::strerror(errno)));
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixWalEnv : public WalEnv {
 public:
  Result<std::unique_ptr<WalFile>> Open(const std::string& path,
                                        bool truncate) override {
    int flags = O_CREAT | O_WRONLY | O_APPEND;
    if (truncate) flags |= O_TRUNC;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::Internal(
          StrFormat("open %s failed: %s", path.c_str(), std::strerror(errno)));
    }
    return {std::make_unique<PosixWalFile>(fd)};
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal(StrFormat("rename %s -> %s failed: %s",
                                        from.c_str(), to.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(StrFormat("unlink %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::Internal(StrFormat("open dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::Internal(StrFormat("fsync dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t len) override {
    if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
      return Status::Internal(StrFormat("truncate %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDirs(const std::string& path) override {
    for (size_t i = 1; i <= path.size(); ++i) {
      if (i < path.size() && path[i] != '/') continue;
      const std::string partial = path.substr(0, i);
      if (partial.empty() || partial == "/") continue;
      if (::mkdir(partial.c_str(), 0755) == 0) {
        // The new entry lives in the parent; fsync it so the directory
        // itself survives power loss.
        DC_RETURN_NOT_OK(SyncDir(DirName(partial)));
      } else if (errno != EEXIST) {
        return Status::Internal(StrFormat("mkdir %s failed: %s",
                                          partial.c_str(),
                                          std::strerror(errno)));
      }
    }
    return Status::OK();
  }
};

}  // namespace

WalEnv* WalEnv::Default() {
  static PosixWalEnv* env = new PosixWalEnv();
  return env;
}

// --------------------------------------------------------------------------
// Encoder / decoder.
// --------------------------------------------------------------------------

std::string_view WalFrame::Seal() {
  const std::string_view body = payload();
  const uint32_t header[2] = {static_cast<uint32_t>(body.size()),
                              Crc32(body.data(), body.size())};
  std::memcpy(buf_.data(), header, sizeof(header));
  return buf_;
}

WalEncoder::WalEncoder(uint8_t type_tag, size_t reserve) {
  buf_.reserve(kWalFrameHeaderBytes + 1 + reserve);
  buf_.resize(kWalFrameHeaderBytes);
  PutU8(type_tag);
}

void WalEncoder::PutStr(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

uint8_t WalDecoder::GetU8() {
  const std::string_view b = GetBytes(1);
  return ok_ ? static_cast<uint8_t>(b[0]) : 0;
}

uint32_t WalDecoder::GetU32() {
  uint32_t v = 0;
  const std::string_view b = GetBytes(sizeof(v));
  if (ok_) std::memcpy(&v, b.data(), sizeof(v));
  return v;
}

uint64_t WalDecoder::GetU64() {
  uint64_t v = 0;
  const std::string_view b = GetBytes(sizeof(v));
  if (ok_) std::memcpy(&v, b.data(), sizeof(v));
  return v;
}

double WalDecoder::GetF64() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WalDecoder::GetStr() { return std::string(GetStrView()); }

std::string_view WalDecoder::GetStrView() {
  const uint32_t n = GetU32();
  return GetBytes(n);
}

std::string_view WalDecoder::GetBytes(size_t n) {
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return {};
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

// --------------------------------------------------------------------------
// Column codec.
// --------------------------------------------------------------------------

namespace {

/// Encoded bytes per value: the width of a fixed-width type, the u32
/// length prefix (the least a value can take) for strings.
size_t MinValueBytes(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return 1;
    case TypeId::kI64:
    case TypeId::kTs:
    case TypeId::kF64:
      return 8;
    case TypeId::kStr:
      return sizeof(uint32_t);
  }
  return 1;
}

/// Exact encoded size of one column, so a batch record allocates once.
size_t EncodedBatBytes(const Bat& b) {
  const uint64_t n = b.size();
  size_t bytes =
      1 + 8 + 1 + (b.has_nulls() ? n : 0) + n * MinValueBytes(b.type());
  if (b.type() == TypeId::kStr) {
    for (uint64_t i = 0; i < n; ++i) bytes += b.StrAt(i).size();
  }
  return bytes;
}

/// Reads `n` fixed-width values with one copy.
template <typename T>
std::vector<T> TakeValues(WalDecoder& dec, uint64_t n) {
  const std::string_view raw = dec.GetBytes(n * sizeof(T));
  std::vector<T> v(dec.ok() ? n : 0);
  if (!v.empty()) std::memcpy(v.data(), raw.data(), raw.size());
  return v;
}

}  // namespace

void EncodeBat(WalEncoder& enc, const Bat& b) {
  const uint64_t n = b.size();
  enc.PutU8(static_cast<uint8_t>(b.type()));
  enc.PutU64(n);
  const bool nulls = b.has_nulls();
  enc.PutU8(nulls ? 1 : 0);
  if (nulls) {
    const std::span<const uint8_t> flags = b.NullFlags();
    enc.PutBytes(flags.data(), flags.size());
    enc.PutZeros(n - flags.size());
  }
  switch (b.type()) {
    case TypeId::kBool:
      enc.PutBytes(b.BoolData().data(), n);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      enc.PutBytes(b.I64Data().data(), n * sizeof(int64_t));
      break;
    case TypeId::kF64:
      enc.PutBytes(b.F64Data().data(), n * sizeof(double));
      break;
    case TypeId::kStr:
      for (uint64_t i = 0; i < n; ++i) enc.PutStr(b.StrAt(i));
      break;
  }
}

Result<BatPtr> DecodeBat(WalDecoder& dec) {
  const uint8_t type_raw = dec.GetU8();
  const uint64_t n = dec.GetU64();
  const bool nulls = dec.GetU8() != 0;
  if (!dec.ok() || type_raw > static_cast<uint8_t>(TypeId::kTs)) {
    return Status::ParseError("wal: malformed column header");
  }
  const TypeId type = static_cast<TypeId>(type_raw);
  // Every row costs at least one byte per null flag plus its value (a
  // string its u32 length), so a length the bytes left cannot hold is
  // corruption: refuse it before allocating anything.
  const size_t row_bytes = (nulls ? 1 : 0) + MinValueBytes(type);
  if (n > dec.remaining() / row_bytes) {
    return Status::ParseError("wal: column length exceeds the record");
  }
  const std::string_view null_flags = nulls ? dec.GetBytes(n) : "";
  BatPtr out;
  switch (type) {
    case TypeId::kBool: {
      std::vector<uint8_t> v = TakeValues<uint8_t>(dec, n);
      for (uint8_t& x : v) x = x != 0 ? 1 : 0;
      out = Bat::MakeBool(std::move(v));
      break;
    }
    case TypeId::kI64:
      out = Bat::MakeI64(TakeValues<int64_t>(dec, n));
      break;
    case TypeId::kTs:
      out = Bat::MakeTs(TakeValues<int64_t>(dec, n));
      break;
    case TypeId::kF64:
      out = Bat::MakeF64(TakeValues<double>(dec, n));
      break;
    case TypeId::kStr:
      out = Bat::MakeEmpty(type);
      out->Reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        const std::string_view v = dec.GetStrView();
        if (!dec.ok()) break;
        out->AppendStr(v);
      }
      break;
  }
  if (!dec.ok()) return Status::ParseError("wal: truncated column payload");
  if (nulls) {
    out->SetNulls(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(null_flags.data()), n));
  }
  return out;
}

// --------------------------------------------------------------------------
// Record codecs.
// --------------------------------------------------------------------------

namespace {

WalEncoder Record(WalRecordType t, size_t reserve = 0) {
  return WalEncoder(static_cast<uint8_t>(t), reserve);
}

Result<WalDecoder> BodyDecoder(const WalRecord& rec, WalRecordType want) {
  if (rec.type != want) return Status::ParseError("wal: record type mismatch");
  return WalDecoder(rec.body);
}

/// The fixed kBatch prefix {ordinal, begin_seq, rows} — all truncation
/// needs to know about a batch.
Status DecodeBatchHeader(WalDecoder& dec, WalBatch* b) {
  b->ordinal = dec.GetU64();
  b->begin_seq = dec.GetU64();
  b->rows = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed batch header");
  return Status::OK();
}

}  // namespace

WalFrame EncodeReset(const WalReset& r) {
  WalEncoder enc = Record(WalRecordType::kReset);
  enc.PutU64(r.start_seq);
  enc.PutU64(r.next_ordinal);
  enc.PutI64(r.watermark);
  enc.PutU8(r.sealed ? 1 : 0);
  return enc.TakeFrame();
}

WalFrame EncodeBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                     const std::vector<BatPtr>& cols) {
  size_t bytes = 3 * 8 + 4;
  for (const BatPtr& c : cols) bytes += EncodedBatBytes(*c);
  WalEncoder enc = Record(WalRecordType::kBatch, bytes);
  enc.PutU64(ordinal);
  enc.PutU64(begin_seq);
  enc.PutU64(rows);
  enc.PutU32(static_cast<uint32_t>(cols.size()));
  for (const BatPtr& c : cols) EncodeBat(enc, *c);
  return enc.TakeFrame();
}

WalFrame EncodeHeartbeat(int64_t ts) {
  WalEncoder enc = Record(WalRecordType::kHeartbeat);
  enc.PutI64(ts);
  return enc.TakeFrame();
}

WalFrame EncodeSeal() { return Record(WalRecordType::kSeal).TakeFrame(); }

WalFrame EncodeStatement(std::string_view sql) {
  WalEncoder enc = Record(WalRecordType::kStatement);
  enc.PutStr(sql);
  return enc.TakeFrame();
}

WalFrame EncodeSubmit(const WalSubmit& s) {
  WalEncoder enc = Record(WalRecordType::kSubmit);
  enc.PutU64(s.token);
  enc.PutStr(s.sql);
  enc.PutU8(s.mode);
  enc.PutStr(s.name);
  enc.PutU32(static_cast<uint32_t>(s.origins.size()));
  for (uint64_t o : s.origins) enc.PutU64(o);
  enc.PutU64(s.batch_cursor);
  enc.PutStr(s.node_label);
  enc.PutU64(s.node_origin);
  return enc.TakeFrame();
}

WalFrame EncodeRemove(uint64_t token) {
  WalEncoder enc = Record(WalRecordType::kRemove);
  enc.PutU64(token);
  return enc.TakeFrame();
}

Result<WalReset> DecodeReset(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kReset));
  WalReset r;
  r.start_seq = dec.GetU64();
  r.next_ordinal = dec.GetU64();
  r.watermark = dec.GetI64();
  r.sealed = dec.GetU8() != 0;
  if (!dec.ok()) return Status::ParseError("wal: malformed reset record");
  return r;
}

Result<WalBatch> DecodeBatch(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kBatch));
  WalBatch b;
  DC_RETURN_NOT_OK(DecodeBatchHeader(dec, &b));
  const uint32_t ncols = dec.GetU32();
  if (!dec.ok() || ncols > 4096) {
    return Status::ParseError("wal: malformed batch header");
  }
  b.cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    DC_ASSIGN_OR_RETURN(BatPtr col, DecodeBat(dec));
    if (col->size() != b.rows) {
      return Status::ParseError("wal: batch column row-count mismatch");
    }
    b.cols.push_back(std::move(col));
  }
  if (!dec.Done()) return Status::ParseError("wal: trailing batch bytes");
  return b;
}

Result<int64_t> DecodeHeartbeat(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kHeartbeat));
  const int64_t ts = dec.GetI64();
  if (!dec.ok()) return Status::ParseError("wal: malformed heartbeat");
  return ts;
}

Result<std::string> DecodeStatement(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kStatement));
  std::string sql = dec.GetStr();
  if (!dec.ok()) return Status::ParseError("wal: malformed statement record");
  return sql;
}

Result<WalSubmit> DecodeSubmit(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kSubmit));
  WalSubmit s;
  s.token = dec.GetU64();
  s.sql = dec.GetStr();
  s.mode = dec.GetU8();
  s.name = dec.GetStr();
  const uint32_t n = dec.GetU32();
  if (!dec.ok() || n > 4096) {
    return Status::ParseError("wal: malformed submit record");
  }
  s.origins.reserve(n);
  for (uint32_t i = 0; i < n; ++i) s.origins.push_back(dec.GetU64());
  s.batch_cursor = dec.GetU64();
  s.node_label = dec.GetStr();
  s.node_origin = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed submit record");
  return s;
}

Result<uint64_t> DecodeRemove(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kRemove));
  const uint64_t token = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed remove record");
  return token;
}

// --------------------------------------------------------------------------
// File scan.
// --------------------------------------------------------------------------

namespace {

/// Reads a whole file with one sized read.
Result<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrFormat("wal file %s not found", path.c_str()));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal(
        StrFormat("stat %s failed: %s", path.c_str(), std::strerror(errno)));
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal(
          StrFormat("read %s failed: %s", path.c_str(), std::strerror(err)));
    }
    if (n == 0) break;  // the file shrank since the stat
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

/// One record of a log image whose length and CRC checked out.
struct FrameView {
  uint64_t offset = 0;       // of the frame header in the image
  std::string_view payload;  // type tag + body
};

/// Walks the valid prefix of a log image, adding one view per good
/// record; returns the prefix length (0 when the magic is missing).
uint64_t ScanFrames(std::string_view data, std::vector<FrameView>* out) {
  if (data.size() < sizeof(kWalMagic) ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return 0;
  }
  size_t pos = sizeof(kWalMagic);
  while (data.size() - pos >= kWalFrameHeaderBytes) {
    uint32_t header[2];  // [len][crc]
    std::memcpy(header, data.data() + pos, sizeof(header));
    const uint32_t len = header[0];
    if (len == 0 || len > kMaxRecordBytes ||
        len > data.size() - pos - kWalFrameHeaderBytes) {
      break;
    }
    const std::string_view payload =
        data.substr(pos + kWalFrameHeaderBytes, len);
    if (Crc32(payload.data(), payload.size()) != header[1]) break;
    out->push_back({pos, payload});
    pos += kWalFrameHeaderBytes + len;
  }
  return pos;
}

WalRecordType TypeOf(const FrameView& f) {
  return static_cast<WalRecordType>(static_cast<uint8_t>(f.payload[0]));
}

}  // namespace

Result<WalScan> ReadWalFile(const std::string& path) {
  DC_ASSIGN_OR_RETURN(const std::string data, ReadFileBytes(path));
  std::vector<FrameView> frames;
  WalScan scan;
  scan.valid_bytes = ScanFrames(data, &frames);
  scan.clean_tail = scan.valid_bytes == data.size();
  scan.records.reserve(frames.size());
  for (const FrameView& f : frames) {
    scan.records.push_back({TypeOf(f), std::string(f.payload.substr(1))});
  }
  return scan;
}

// --------------------------------------------------------------------------
// WalWriter.
// --------------------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalEnv* env,
                                                   std::string path,
                                                   FsyncPolicy policy,
                                                   int fsync_interval,
                                                   WalCounters counters) {
  bool fresh = !env->FileExists(path);
  if (!fresh) {
    // Drop a corrupt tail so new records extend the valid prefix. The
    // scan reads the real file: anything a simulated crash never
    // persisted is (correctly) not there.
    Result<std::string> data = ReadFileBytes(path);
    if (data.ok()) {
      std::vector<FrameView> frames;
      const uint64_t valid_bytes = ScanFrames(*data, &frames);
      if (valid_bytes == 0) {
        fresh = true;  // no valid magic — rewrite from scratch
      } else if (valid_bytes != data->size()) {
        DC_RETURN_NOT_OK(env->TruncateFile(path, valid_bytes));
      }
    } else {
      fresh = true;
    }
  }
  std::unique_ptr<WalWriter> w(new WalWriter(
      env, std::move(path), policy, fsync_interval, std::move(counters)));
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> file,
                      env->Open(w->path_, /*truncate=*/fresh));
  {
    MutexLock lock(w->mu_);
    w->file_ = std::move(file);
    if (fresh) {
      DC_RETURN_NOT_OK(
          w->file_->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
    }
  }
  if (fresh) {
    // A freshly created log is durable only once its directory ENTRY is:
    // fsyncing the file alone does not survive power loss of the parent.
    DC_RETURN_NOT_OK(env->SyncDir(DirName(w->path_)));
  }
  return w;
}

Status WalWriter::Append(WalFrame frame) {
  trace::Span span("wal.append", "wal");
  const std::string_view framed = frame.Seal();
  span.set_arg(static_cast<int64_t>(framed.size()));
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  DC_RETURN_NOT_OK(file_->Append(framed));
  if (counters_.records) counters_.records->Add(1);
  if (counters_.bytes) counters_.bytes->Add(framed.size());
  switch (policy_) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kAlways:
      DC_RETURN_NOT_OK(SyncLocked());
      break;
    case FsyncPolicy::kInterval:
      if (++unsynced_ >= fsync_interval_) DC_RETURN_NOT_OK(SyncLocked());
      break;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  trace::Span span("wal.fsync", "wal");
  DC_RETURN_NOT_OK(file_->Sync());
  unsynced_ = 0;
  if (counters_.syncs) counters_.syncs->Add(1);
  return Status::OK();
}

Status WalWriter::TruncateTo(uint64_t horizon) {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  // Flush so the rewrite below sees every record appended so far.
  DC_RETURN_NOT_OK(SyncLocked());
  DC_ASSIGN_OR_RETURN(const std::string data, ReadFileBytes(path_));
  std::vector<FrameView> frames;
  const uint64_t valid_bytes = ScanFrames(data, &frames);

  // Fold the dropped prefix into a fresh reset record. Heartbeat
  // watermarks fold exactly; dropped batch timestamps need no folding
  // because the basket clamps appends to be globally non-decreasing, so
  // any surviving row revives at least the dropped rows' watermark (see
  // docs/DURABILITY.md, "Truncation"). A batch is judged by its fixed
  // header alone; its columns are never decoded.
  WalReset reset;
  size_t keep_from = frames.size();
  for (size_t i = 0; i < frames.size(); ++i) {
    const WalRecordType type = TypeOf(frames[i]);
    const std::string_view body = frames[i].payload.substr(1);
    if (type == WalRecordType::kReset) {
      DC_ASSIGN_OR_RETURN(reset, DecodeReset({type, std::string(body)}));
      continue;
    }
    if (type == WalRecordType::kHeartbeat) {
      DC_ASSIGN_OR_RETURN(const int64_t ts,
                          DecodeHeartbeat({type, std::string(body)}));
      if (ts > reset.watermark) reset.watermark = ts;
      continue;
    }
    if (type == WalRecordType::kSeal) {
      reset.sealed = true;
      continue;
    }
    if (type == WalRecordType::kBatch) {
      WalDecoder dec(body);
      WalBatch b;
      DC_RETURN_NOT_OK(DecodeBatchHeader(dec, &b));
      const uint64_t end_seq = b.begin_seq + b.rows;
      const bool droppable =
          b.rows > 0 ? end_seq <= horizon : b.begin_seq < horizon;
      if (!droppable) {
        keep_from = i;
        break;
      }
      reset.start_seq = end_seq;
      reset.next_ordinal = b.ordinal + 1;
      continue;
    }
    // Unknown record type in a basket log: keep it and everything after.
    keep_from = i;
    break;
  }

  const std::string tmp = path_ + ".tmp";
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> out,
                      env_->Open(tmp, /*truncate=*/true));
  std::string head(kWalMagic, sizeof(kWalMagic));
  WalFrame reset_frame = EncodeReset(reset);
  head.append(reset_frame.Seal());
  DC_RETURN_NOT_OK(out->Append(head));
  if (keep_from < frames.size()) {
    // The kept records were verified by the scan: copy their frames as
    // they are, without re-framing or re-checksumming them.
    const uint64_t from = frames[keep_from].offset;
    DC_RETURN_NOT_OK(out->Append(
        std::string_view(data).substr(from, valid_bytes - from)));
  }
  DC_RETURN_NOT_OK(out->Sync());
  DC_RETURN_NOT_OK(out->Close());
  DC_RETURN_NOT_OK(file_->Close());
  file_ = nullptr;
  DC_RETURN_NOT_OK(env_->Rename(tmp, path_));
  // Make the rename durable before appending to the rewritten file.
  DC_RETURN_NOT_OK(env_->SyncDir(DirName(path_)));
  DC_ASSIGN_OR_RETURN(file_, env_->Open(path_, /*truncate=*/false));
  unsynced_ = 0;
  if (counters_.truncations) counters_.truncations->Add(1);
  return Status::OK();
}

}  // namespace storage
}  // namespace dc
