#include "engine/durable_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/crc32c.h"

namespace blowfish {

// ------------------------------------------- little-endian wire codec

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutLenPrefixed(std::string* out, std::string_view s) {
  const size_t n = std::min<size_t>(s.size(), 0xFFFF);
  PutU16(out, static_cast<uint16_t>(n));
  out->append(s.data(), n);
}

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + "(" + path + "): " + std::strerror(errno);
}

// ------------------------------------------- names, header and frames

std::string NumberedName::Format(uint64_t n) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(n));
  return std::string(prefix) + "-" + hex + "." + std::string(ext);
}

bool NumberedName::Parse(std::string_view name, uint64_t* n) const {
  if (name.size() < prefix.size() + 17) return false;
  const std::string hex(name.substr(prefix.size() + 1, 16));
  const uint64_t v = std::strtoull(hex.c_str(), nullptr, 16);
  // The round trip rejects everything but the canonical spelling.
  if (name != Format(v)) return false;
  if (n != nullptr) *n = v;
  return true;
}

void AppendFileHeader(const char (&magic)[8], uint32_t version, uint64_t seq,
                      std::string* out) {
  const size_t start = out->size();
  out->append(magic, sizeof(magic));
  PutU32(out, version);
  PutU64(out, seq);
  PutU32(out, Crc32c(out->data() + start, 20));
}

std::string CheckFileHeader(const char* data, size_t size,
                            const char (&magic)[8], uint32_t version,
                            uint64_t* seq) {
  if (size < kFileHeaderBytes) return "file shorter than the 24-byte header";
  if (std::memcmp(data, magic, sizeof(magic)) != 0) return "bad magic";
  if (GetU32(data + 20) != Crc32c(data, 20)) {
    return "header CRC mismatch (torn header)";
  }
  if (GetU32(data + 8) != version) {
    return "unsupported format version " + std::to_string(GetU32(data + 8));
  }
  *seq = GetU64(data + 12);
  return "";
}

void AppendFrame(std::string_view payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32cMask(Crc32c(payload.data(), payload.size())));
  out->append(payload);
}

FrameCheck ReadFrame(const char* data, size_t size, size_t offset,
                     uint32_t max_len, std::string_view* payload) {
  const size_t avail = size - offset;
  if (avail < kFrameOverhead) return FrameCheck::kIncomplete;
  const uint32_t len = GetU32(data + offset);
  if (len > max_len) return FrameCheck::kOversized;
  if (avail - kFrameOverhead < len) return FrameCheck::kIncomplete;
  const char* p = data + offset + kFrameOverhead;
  if (Crc32c(p, len) != Crc32cUnmask(GetU32(data + offset + 4))) {
    return FrameCheck::kBadCrc;
  }
  *payload = std::string_view(p, len);
  return FrameCheck::kOk;
}

// ------------------------------------------------------------ POSIX IO

namespace {

/// OK when a POSIX call returned 0, else an IOError naming the call.
Status OkOrErrno(int rc, const char* op, const std::string& path) {
  return rc == 0 ? Status::OK() : Status::IOError(ErrnoMessage(op, path));
}

class PosixFile : public DurableFile {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<size_t> Append(const void* data, size_t n) override {
    const ssize_t w = ::write(fd_, data, n);
    if (w < 0) {
      if (errno == EINTR) return static_cast<size_t>(0);  // retryable
      return Status::IOError(ErrnoMessage("write", path_));
    }
    return static_cast<size_t>(w);
  }

  Status Sync() override { return OkOrErrno(::fsync(fd_), "fsync", path_); }

  Status Truncate(uint64_t size) override {
    return OkOrErrno(::ftruncate(fd_, static_cast<off_t>(size)), "ftruncate",
                     path_);
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    return OkOrErrno(::close(fd), "close", path_);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixIo : public FileIo {
 public:
  Result<std::unique_ptr<DurableFile>> OpenAppend(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0600);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
    return std::unique_ptr<DurableFile>(new PosixFile(fd, path));
  }

  Result<std::string> ReadAll(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status st = Status::IOError(ErrnoMessage("read", path));
        ::close(fd);
        return st;
      }
      if (r == 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return out;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("opendir", dir));
      }
      return Status::IOError(ErrnoMessage("opendir", dir));
    }
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      if (e->d_type != DT_REG && e->d_type != DT_UNKNOWN) continue;
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    const int rc = ::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST ? -1 : 0;
    return OkOrErrno(rc, "mkdir", dir);
  }

  Status Remove(const std::string& path) override {
    return OkOrErrno(::unlink(path.c_str()), "unlink", path);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    return OkOrErrno(::rename(from.c_str(), to.c_str()), "rename", to);
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
    Status st =
        OkOrErrno(::ftruncate(fd, static_cast<off_t>(size)), "ftruncate", path);
    if (st.ok()) st = OkOrErrno(::fsync(fd), "fsync", path);
    ::close(fd);
    return st;
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", dir));
    // EINVAL: the filesystem cannot fsync directories (best effort).
    const int rc = ::fsync(fd) != 0 && errno != EINVAL ? -1 : 0;
    const Status st = OkOrErrno(rc, "fsync", dir);
    ::close(fd);
    return st;
  }
};

}  // namespace

FileIo* PosixFileIo() {
  static PosixIo* io = new PosixIo();  // leaked: process-lifetime
  return io;
}

Result<std::vector<std::string>> ListNumbered(FileIo* io,
                                              const std::string& dir,
                                              const NumberedName& scheme) {
  Result<std::vector<std::string>> listing = io->ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::vector<std::string> names;
  for (const std::string& name : *listing) {
    if (scheme.Parse(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ------------------------------------------------------ fault injection

namespace {

bool InWindow(uint64_t call, uint64_t at, int count) {
  return at != 0 && call >= at && call < at + static_cast<uint64_t>(count);
}

class FaultInjectingFile : public DurableFile {
 public:
  FaultInjectingFile(std::unique_ptr<DurableFile> base, FileFaultPlan* plan)
      : base_(std::move(base)), plan_(plan) {}

  Result<size_t> Append(const void* data, size_t n) override {
    const uint64_t call =
        plan_->append_calls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (InWindow(call, plan_->fail_append_at, plan_->fail_append_count)) {
      if (plan_->torn_bytes_on_failure > 0) {
        // A torn write: some bytes reach the disk even though the call
        // reports failure — the caller must not assume the file tail
        // is where it left it.
        const size_t torn = std::min(plan_->torn_bytes_on_failure, n);
        (void)base_->Append(data, torn);
      }
      return Status(plan_->append_error,
                    "injected append fault (call #" + std::to_string(call) +
                        ")");
    }
    if (plan_->short_append_at == call && n > 1) {
      return base_->Append(data, n / 2);  // short write, reported as success
    }
    return base_->Append(data, n);
  }

  Status Sync() override {
    const uint64_t call =
        plan_->sync_calls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (InWindow(call, plan_->fail_sync_at, plan_->fail_sync_count)) {
      return Status::IOError("injected fsync fault (call #" +
                             std::to_string(call) + ")");
    }
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    if (plan_->fail_truncate) {
      return Status::IOError("injected truncate fault");
    }
    return base_->Truncate(size);
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<DurableFile> base_;
  FileFaultPlan* plan_;
};

}  // namespace

Result<std::unique_ptr<DurableFile>> FaultInjectingFileIo::OpenAppend(
    const std::string& path) {
  Result<std::unique_ptr<DurableFile>> base = base_->OpenAppend(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<DurableFile>(
      new FaultInjectingFile(std::move(base).ValueOrDie(), plan_));
}

Status FaultInjectingFileIo::Rename(const std::string& from,
                                    const std::string& to) {
  if (plan_->fail_rename) return Status::IOError("injected rename fault");
  return base_->Rename(from, to);
}

std::string OwnerOnlyWarning(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || (st.st_mode & 077) == 0) return "";
  char mode[8];
  std::snprintf(mode, sizeof(mode), "%04o",
                static_cast<unsigned>(st.st_mode & 07777));
  return path + ": mode " + mode +
         " grants group/other access; expected owner-only (chmod " +
         (S_ISDIR(st.st_mode) ? "700)" : "600)");
}

}  // namespace blowfish
