// The durable-file layer under the ε-spend journal (ledger_journal.h)
// and the warm-restart snapshot store (snapshot_store.h): one codec and
// one fault-injectable I/O interface for both.
//
//   name     `<prefix>-<n:016x>.<ext>`; fixed width, so lexicographic
//            order is numeric order
//   header   8-byte magic | u32 version | u64 seq or generation |
//            u32 CRC32C over the first 20 bytes
//   frame    [u32 payload_len][u32 masked CRC32C(payload)][payload]
//
// Integers are little-endian and doubles travel as IEEE bit patterns.
// The frame reader only classifies a frame; what a damaged frame means
// is the owner's rule (the journal repairs a torn final frame, the
// snapshot store fails the file). Magics, length ceilings and payload
// schemas stay with their owners.

#ifndef BLOWFISH_ENGINE_DURABLE_FILE_H_
#define BLOWFISH_ENGINE_DURABLE_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace blowfish {

// ------------------------------------------- little-endian wire codec

template <typename T>
void PutLE(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
inline void PutU16(std::string* out, uint16_t v) { PutLE(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLE(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLE(out, v); }
void PutF64(std::string* out, double v);
/// u16 length + bytes; past 64 KiB the string is cut to 0xFFFF bytes
/// (ids, tags and names are short by construction).
void PutLenPrefixed(std::string* out, std::string_view s);

template <typename T>
T GetLE(const char* p) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | static_cast<uint8_t>(p[i]));
  }
  return v;
}
inline uint32_t GetU32(const char* p) { return GetLE<uint32_t>(p); }
inline uint64_t GetU64(const char* p) { return GetLE<uint64_t>(p); }

/// \brief Bounds-checked payload parser: every read that would run
/// past the payload flips `ok` and yields zeros, so decode failure is
/// a single flag check, never UB.
struct ByteReader {
  const char* p;
  const char* end;
  bool ok = true;

  bool Take(size_t n) {
    if (!ok || static_cast<size_t>(end - p) < n) ok = false;
    return ok;
  }
  template <typename T>
  T Read() {
    if (!Take(sizeof(T))) return 0;
    const T v = GetLE<T>(p);
    p += sizeof(T);
    return v;
  }
  uint8_t U8() { return Read<uint8_t>(); }
  uint16_t U16() { return Read<uint16_t>(); }
  uint32_t U32() { return Read<uint32_t>(); }
  uint64_t U64() { return Read<uint64_t>(); }
  double F64() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Str(std::string* out) {
    const uint16_t n = U16();
    if (!Take(n)) return false;
    out->assign(p, n);
    p += n;
    return true;
  }
  bool done() const { return ok && p == end; }
};

/// "op(path): strerror(errno)".
std::string ErrnoMessage(const std::string& op, const std::string& path);

// ------------------------------------------- names, header and frames

/// \brief The `<prefix>-<n:016x>.<ext>` naming scheme of one format.
struct NumberedName {
  std::string_view prefix;
  std::string_view ext;

  std::string Format(uint64_t n) const;
  /// True iff `name` is exactly Format(n) for some n (stored in `*n`).
  bool Parse(std::string_view name, uint64_t* n = nullptr) const;
};

constexpr size_t kFileHeaderBytes = 24;
constexpr size_t kFrameOverhead = 8;  // u32 len + u32 masked crc

void AppendFileHeader(const char (&magic)[8], uint32_t version, uint64_t seq,
                      std::string* out);
/// Empty when `data` starts with a valid header (its seq lands in
/// `*seq`), else what is wrong with it. The CRC is checked before the
/// version, so a torn header never reads as an unknown version.
std::string CheckFileHeader(const char* data, size_t size,
                            const char (&magic)[8], uint32_t version,
                            uint64_t* seq);

void AppendFrame(std::string_view payload, std::string* out);

enum class FrameCheck { kOk, kIncomplete, kOversized, kBadCrc };

/// Classifies the frame at `data[offset..size)`; on kOk `*payload`
/// views its payload. kIncomplete: it runs past the end. kOversized:
/// its length exceeds `max_len`, even when the data ends first.
FrameCheck ReadFrame(const char* data, size_t size, size_t offset,
                     uint32_t max_len, std::string_view* payload);

// ----------------------------------------------------------- file I/O

/// \brief One writable file. Append may land fewer bytes than asked (a
/// short write, or 0 on EINTR); callers continue from where it is.
class DurableFile {
 public:
  virtual ~DurableFile() = default;
  virtual Result<size_t> Append(const void* data, size_t n) = 0;
  virtual Status Sync() = 0;  ///< fsync
  virtual Status Truncate(uint64_t size) = 0;
  virtual Status Close() = 0;
};

/// \brief Filesystem surface both stores run on. The default talks
/// POSIX; tests wrap it with FaultInjectingFileIo.
class FileIo {
 public:
  virtual ~FileIo() = default;
  /// Creates missing files owner-only (0600): journal segments carry
  /// tenant ids and spend history, snapshots the private histograms.
  virtual Result<std::unique_ptr<DurableFile>> OpenAppend(
      const std::string& path) = 0;
  virtual Result<std::string> ReadAll(const std::string& path) = 0;
  /// Regular-file names directly inside `dir`, unsorted. A missing
  /// directory is kNotFound.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  /// Owner-only (0700); ok if it exists.
  virtual Status CreateDir(const std::string& dir) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Durable out-of-band truncate (torn-tail repair at recovery).
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  /// fsyncs directory metadata. A filesystem that cannot (EINVAL)
  /// counts as best-effort success: nothing more durable is available.
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// The process-wide POSIX implementation (stateless, never destroyed).
FileIo* PosixFileIo();

/// Names in `dir` that parse as `scheme`, sorted (oldest first).
Result<std::vector<std::string>> ListNumbered(FileIo* io,
                                              const std::string& dir,
                                              const NumberedName& scheme);

/// \brief Deterministic fault plan shared by every file a
/// FaultInjectingFileIo hands out. Call indices are 1-based and
/// global across files (the Nth Append call anywhere fails). A
/// `*_count` bounds how many consecutive calls fail from that index
/// on — a small count models a transient error that a bounded retry
/// should ride out; the default (unbounded) models a dead disk.
struct FileFaultPlan {
  uint64_t fail_append_at = 0;   ///< 0 = never
  int fail_append_count = 1 << 30;
  /// Status the failing Append reports (kIOError, or kUnavailable to
  /// model ENOSPC-then-freed).
  StatusCode append_error = StatusCode::kIOError;
  /// On failure, first land this many bytes of the attempted write —
  /// a torn write: bytes on disk, call reported failed.
  size_t torn_bytes_on_failure = 0;

  uint64_t short_append_at = 0;  ///< Nth append lands only half, "succeeds"
  uint64_t fail_sync_at = 0;
  int fail_sync_count = 1 << 30;
  bool fail_truncate = false;    ///< every in-file Truncate fails
  bool fail_rename = false;      ///< every Rename fails

  std::atomic<uint64_t> append_calls{0};
  std::atomic<uint64_t> sync_calls{0};
};

/// \brief Wraps a base FileIo, applying `plan` to every file it opens
/// and to Rename. The plan is caller-owned and may be inspected/reset
/// between test phases.
class FaultInjectingFileIo : public FileIo {
 public:
  FaultInjectingFileIo(FileIo* base, FileFaultPlan* plan)
      : base_(base), plan_(plan) {}

  Result<std::unique_ptr<DurableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::string> ReadAll(const std::string& path) override {
    return base_->ReadAll(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 private:
  FileIo* base_;
  FileFaultPlan* plan_;
};

/// Data at rest: empty when `path` grants no group or other permission
/// bits (or cannot be stat'ed), else a warning naming its mode and the
/// chmod that fixes it. Files written before the stores created them
/// 0600 keep 0644, directories made before 0700 keep 0755.
std::string OwnerOnlyWarning(const std::string& path);

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_DURABLE_FILE_H_
