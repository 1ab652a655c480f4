#include "engine/snapshot_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"

namespace blowfish {

namespace {

constexpr char kMagic[8] = {'B', 'F', 'S', 'N', 'A', 'P', 'S', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 24;
constexpr size_t kFrameOverhead = 8;  // u32 len + u32 masked crc
// A section is one policy (graph + data) or one transform; even a
// millions-of-edges graph stays far under this. A larger claimed
// length is garbage, not data.
constexpr uint32_t kMaxSectionBytes = 1u << 30;

constexpr uint8_t kSectionPolicy = 1;
constexpr uint8_t kSectionTransform = 2;
constexpr uint8_t kSectionFooter = 3;

// ------------------------------------------ little-endian wire encode

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutLenPrefixed(std::string* out, std::string_view s) {
  // Policy names and family tags are short by construction.
  const size_t n = std::min<size_t>(s.size(), 0xFFFF);
  PutU16(out, static_cast<uint16_t>(n));
  out->append(s.data(), n);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

/// Bounds-checked section parser (same contract as the journal's):
/// any read past the payload flips `ok` and yields zeros, so decode
/// failure is one flag check, never UB.
struct ByteReader {
  const char* p;
  const char* end;
  bool ok = true;

  bool Take(size_t n) {
    if (!ok || static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Take(1)) return 0;
    return static_cast<uint8_t>(*p++);
  }
  uint16_t U16() {
    if (!Take(2)) return 0;
    uint16_t v = static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                                       (static_cast<uint8_t>(p[1]) << 8));
    p += 2;
    return v;
  }
  uint32_t U32() {
    if (!Take(4)) return 0;
    uint32_t v = GetU32(p);
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Take(8)) return 0;
    uint64_t v = GetU64(p);
    p += 8;
    return v;
  }
  double F64() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Str(std::string* out) {
    uint16_t n = U16();
    if (!Take(n)) return false;
    out->assign(p, n);
    p += n;
    return true;
  }
  bool done() const { return ok && p == end; }
};

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + "(" + path + "): " + std::strerror(errno);
}

bool IsSnapshotName(const std::string& name) {
  // snapshot-<16 hex>.bfs — fixed width, so lexicographic order is
  // generation order.
  if (name.size() != 9 + 16 + 4) return false;
  if (name.compare(0, 9, "snapshot-") != 0) return false;
  if (name.compare(25, 4, ".bfs") != 0) return false;
  for (size_t i = 9; i < 25; ++i) {
    const char c = name[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

uint64_t GenerationOf(const std::string& name) {
  return std::strtoull(name.substr(9, 16).c_str(), nullptr, 16);
}

// ------------------------------------------------------- section codec

void EncodeVector(const Vector& v, std::string* out) {
  PutU64(out, v.size());
  for (double x : v) PutF64(out, x);
}

bool DecodeVector(ByteReader* r, Vector* v) {
  const uint64_t n = r->U64();
  if (!r->Take(n * 8)) return false;
  v->resize(n);
  for (uint64_t i = 0; i < n; ++i) (*v)[i] = r->F64();
  return r->ok;
}

void EncodePolicySection(const SnapshotPolicy& p, std::string* out) {
  out->push_back(static_cast<char>(kSectionPolicy));
  PutLenPrefixed(out, p.registered_name);
  PutLenPrefixed(out, p.policy_name);
  PutU64(out, p.version);
  PutF64(out, p.epsilon_cap);
  PutU32(out, static_cast<uint32_t>(p.dims.size()));
  for (size_t d : p.dims) PutU64(out, d);
  PutU64(out, p.num_vertices);
  PutU64(out, p.edges.size());
  for (const Graph::Edge& e : p.edges) {
    // kBottom == SIZE_MAX persists naturally as all-ones.
    PutU64(out, e.u);
    PutU64(out, e.v);
  }
  EncodeVector(p.data, out);
  out->push_back(static_cast<char>(p.plan_hints.size() & 0xFF));
  for (const SnapshotPlanHint& h : p.plan_hints) {
    out->push_back(static_cast<char>(h.slot));
    PutLenPrefixed(out, h.kind);
    PutU64(out, 0);  // ignored field (a legacy stretch hint)
  }
}

bool DecodePolicySection(ByteReader* r, SnapshotPolicy* p) {
  if (!r->Str(&p->registered_name)) return false;
  if (!r->Str(&p->policy_name)) return false;
  p->version = r->U64();
  p->epsilon_cap = r->F64();
  const uint32_t ndims = r->U32();
  if (!r->Take(ndims * 8)) return false;
  p->dims.resize(ndims);
  for (uint32_t i = 0; i < ndims; ++i) p->dims[i] = r->U64();
  p->num_vertices = r->U64();
  const uint64_t nedges = r->U64();
  if (!r->Take(nedges * 16)) return false;
  p->edges.resize(nedges);
  for (uint64_t i = 0; i < nedges; ++i) {
    p->edges[i].u = r->U64();
    p->edges[i].v = r->U64();
  }
  if (!DecodeVector(r, &p->data)) return false;
  const uint8_t nhints = r->U8();
  p->plan_hints.resize(nhints);
  for (uint8_t i = 0; i < nhints && r->ok; ++i) {
    p->plan_hints[i].slot = r->U8();
    if (!r->Str(&p->plan_hints[i].kind)) return false;
    r->U64();  // ignored field (a legacy stretch hint)
  }
  return r->done();
}

void EncodeTransformSection(const SnapshotTransform& t, std::string* out) {
  out->push_back(static_cast<char>(kSectionTransform));
  PutLenPrefixed(out, t.registered_name);
  PutU64(out, t.version);
  out->push_back(static_cast<char>(t.data_dependent ? 1 : 0));
  PutLenPrefixed(out, t.family);
  out->push_back(static_cast<char>(t.payload.vectors.size() & 0xFF));
  for (const Vector& v : t.payload.vectors) EncodeVector(v, out);
  out->push_back(static_cast<char>(t.payload.scalars.size() & 0xFF));
  for (double s : t.payload.scalars) PutF64(out, s);
}

bool DecodeTransformSection(ByteReader* r, SnapshotTransform* t) {
  if (!r->Str(&t->registered_name)) return false;
  t->version = r->U64();
  t->data_dependent = r->U8() != 0;
  if (!r->Str(&t->family)) return false;
  const uint8_t nvec = r->U8();
  t->payload.vectors.resize(nvec);
  for (uint8_t i = 0; i < nvec && r->ok; ++i) {
    if (!DecodeVector(r, &t->payload.vectors[i])) return false;
  }
  const uint8_t nscalar = r->U8();
  if (!r->Take(nscalar * 8)) return false;
  t->payload.scalars.resize(nscalar);
  for (uint8_t i = 0; i < nscalar; ++i) t->payload.scalars[i] = r->F64();
  return r->done();
}

void AppendFrame(const std::string& payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32cMask(Crc32c(payload.data(), payload.size())));
  out->append(payload);
}

std::string SerializeImage(const SnapshotImage& image, uint64_t generation) {
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kFormatVersion);
  PutU64(&out, generation);
  PutU32(&out, Crc32c(out.data(), out.size()));
  BF_DCHECK_EQ(out.size(), kHeaderBytes);

  std::string payload;
  size_t sections = 0;
  for (const SnapshotPolicy& p : image.policies) {
    payload.clear();
    EncodePolicySection(p, &payload);
    AppendFrame(payload, &out);
    ++sections;
  }
  for (const SnapshotTransform& t : image.transforms) {
    payload.clear();
    EncodeTransformSection(t, &payload);
    AppendFrame(payload, &out);
    ++sections;
  }
  payload.clear();
  payload.push_back(static_cast<char>(kSectionFooter));
  PutU32(&payload, static_cast<uint32_t>(sections));
  PutU64(&payload, generation);
  AppendFrame(payload, &out);
  return out;
}

/// Read-only mapping of a whole file; falls back to read(2) only for
/// empty files (mmap of length 0 is invalid). Unmapped on destruction.
class MappedFile {
 public:
  static Status Map(const std::string& path, MappedFile* out) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status s = Status::IOError(ErrnoMessage("fstat", path));
      ::close(fd);
      return s;
    }
    out->size_ = static_cast<size_t>(st.st_size);
    if (out->size_ > 0) {
      void* p = ::mmap(nullptr, out->size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p == MAP_FAILED) {
        const Status s = Status::IOError(ErrnoMessage("mmap", path));
        ::close(fd);
        return s;
      }
      out->data_ = static_cast<const char*>(p);
    }
    ::close(fd);  // the mapping survives the fd
    return Status::OK();
  }

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
  }

  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Parses a mapped snapshot into `image` + `report`. Returns true iff
/// the file is fully valid (header, every frame, footer); on false
/// the report explains why, and `image` may hold a partial decode the
/// caller must discard.
bool ParseMapped(const char* data, size_t size, SnapshotImage* image,
                 snapshot::VerifyReport* report) {
  report->valid_prefix_bytes = 0;
  if (size < kHeaderBytes) {
    report->errors.push_back("file shorter than the 24-byte header");
    return false;
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    report->errors.push_back("bad magic (not a snapshot file)");
    return false;
  }
  const uint32_t format = GetU32(data + 8);
  const uint64_t generation = GetU64(data + 12);
  const uint32_t header_crc = GetU32(data + 20);
  if (Crc32c(data, 20) != header_crc) {
    report->errors.push_back("header CRC mismatch (torn header)");
    return false;
  }
  if (format != kFormatVersion) {
    report->errors.push_back("unsupported format version " +
                             std::to_string(format));
    return false;
  }
  report->generation = generation;
  image->generation = generation;
  report->valid_prefix_bytes = kHeaderBytes;

  size_t offset = kHeaderBytes;
  uint32_t footer_sections = 0;
  while (offset < size) {
    if (size - offset < kFrameOverhead) {
      report->errors.push_back("truncated frame header at byte " +
                               std::to_string(offset));
      return false;
    }
    const uint32_t len = GetU32(data + offset);
    const uint32_t masked_crc = GetU32(data + offset + 4);
    if (len == 0 || len > kMaxSectionBytes ||
        len > size - offset - kFrameOverhead) {
      report->errors.push_back("truncated or oversized section at byte " +
                               std::to_string(offset));
      return false;
    }
    const char* payload = data + offset + kFrameOverhead;
    if (Crc32c(payload, len) != Crc32cUnmask(masked_crc)) {
      report->errors.push_back("section CRC mismatch at byte " +
                               std::to_string(offset));
      return false;
    }
    if (report->footer_ok) {
      report->errors.push_back("data after footer at byte " +
                               std::to_string(offset));
      return false;
    }
    ByteReader r{payload, payload + len};
    const uint8_t type = r.U8();
    bool decoded = false;
    switch (type) {
      case kSectionPolicy: {
        SnapshotPolicy p;
        decoded = DecodePolicySection(&r, &p);
        if (decoded) {
          image->policies.push_back(std::move(p));
          ++report->policies;
        }
        break;
      }
      case kSectionTransform: {
        SnapshotTransform t;
        decoded = DecodeTransformSection(&r, &t);
        if (decoded) {
          image->transforms.push_back(std::move(t));
          ++report->transforms;
        }
        break;
      }
      case kSectionFooter: {
        footer_sections = r.U32();
        const uint64_t echo = r.U64();
        decoded = r.done() && echo == generation;
        report->footer_ok = decoded;
        break;
      }
      default:
        break;
    }
    if (!decoded) {
      report->errors.push_back("undecodable section (type " +
                               std::to_string(type) + ") at byte " +
                               std::to_string(offset));
      return false;
    }
    ++report->sections;
    offset += kFrameOverhead + len;
    report->valid_prefix_bytes = offset;
  }
  if (!report->footer_ok) {
    report->errors.push_back("missing footer (torn tail)");
    return false;
  }
  // The footer counts the sections before it.
  if (footer_sections != report->sections - 1) {
    report->errors.push_back(
        "footer section count " + std::to_string(footer_sections) +
        " != observed " + std::to_string(report->sections - 1));
    return false;
  }
  return true;
}

Status ListSnapshotNames(const std::string& dir,
                         std::vector<std::string>* names) {
  names->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError(ErrnoMessage("opendir", dir));
  }
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (IsSnapshotName(name)) names->push_back(name);
  }
  ::closedir(d);
  std::sort(names->begin(), names->end());
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", dir));
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    return Status::IOError(ErrnoMessage("fsync", dir));
  }
  return Status::OK();
}

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  // Owner-only: snapshots carry the private histograms.
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      const Status s = Status::IOError(ErrnoMessage("write", path));
      ::close(fd);
      return s;
    }
    off += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    const Status s = Status::IOError(ErrnoMessage("fsync", path));
    ::close(fd);
    return s;
  }
  if (::close(fd) != 0) {
    return Status::IOError(ErrnoMessage("close", path));
  }
  return Status::OK();
}

}  // namespace

namespace snapshot {

std::string FileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%016llx.bfs",
                static_cast<unsigned long long>(generation));
  return buf;
}

Result<std::vector<std::string>> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  BF_RETURN_NOT_OK(ListSnapshotNames(dir, &names));
  return names;
}

Status Write(const std::string& dir, const SnapshotImage& image,
             size_t keep_generations, uint64_t* generation_out) {
  if (dir.empty()) {
    return Status::InvalidArgument("snapshot directory not configured");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(ErrnoMessage("mkdir", dir));
  }
  std::vector<std::string> names;
  BF_RETURN_NOT_OK(ListSnapshotNames(dir, &names));
  const uint64_t generation =
      names.empty() ? 1 : GenerationOf(names.back()) + 1;

  const std::string bytes = SerializeImage(image, generation);
  const std::string final_path = dir + "/" + FileName(generation);
  const std::string tmp_path = final_path + ".tmp";
  BF_RETURN_NOT_OK(WriteFileDurably(tmp_path, bytes));
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename", final_path));
  }
  BF_RETURN_NOT_OK(SyncDir(dir));

  // Prune: the new generation is durable, so older files beyond the
  // keep window are dead weight. Keep >= 1 older generation when
  // asked to, as the fallback for a future torn write.
  const size_t keep = std::max<size_t>(keep_generations, 1);
  names.push_back(FileName(generation));
  if (names.size() > keep) {
    for (size_t i = 0; i + keep < names.size(); ++i) {
      // Best effort: a surviving stale file is re-pruned next write.
      ::unlink((dir + "/" + names[i]).c_str());
    }
  }
  if (generation_out != nullptr) *generation_out = generation;
  return Status::OK();
}

Status OpenLatest(const std::string& dir, SnapshotImage* image,
                  OpenReport* report) {
  BF_CHECK(image != nullptr && report != nullptr);
  *report = OpenReport();
  *image = SnapshotImage();
  if (dir.empty()) {
    return Status::InvalidArgument("snapshot directory not configured");
  }
  std::vector<std::string> names;
  const Status list = ListSnapshotNames(dir, &names);
  if (!list.ok()) {
    // Unreadable directory is a cold start, not a refusal.
    report->skipped.push_back(dir + ": " + list.message());
    return Status::OK();
  }
  // Newest first: a valid newer generation always wins; corrupt files
  // fall back to the previous generation.
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const std::string path = dir + "/" + *it;
    MappedFile mapped;
    const Status map = MappedFile::Map(path, &mapped);
    if (!map.ok()) {
      report->skipped.push_back(*it + ": " + map.message());
      continue;
    }
    SnapshotImage candidate;
    VerifyReport verify;
    if (ParseMapped(mapped.data(), mapped.size(), &candidate, &verify)) {
      *image = std::move(candidate);
      report->loaded = true;
      report->generation = verify.generation;
      report->path = path;
      return Status::OK();
    }
    report->skipped.push_back(
        *it + ": " + (verify.errors.empty() ? "unparseable"
                                            : verify.errors.front()));
  }
  return Status::OK();  // nothing valid: cold start
}

Status Verify(const std::string& path, VerifyReport* report) {
  BF_CHECK(report != nullptr);
  *report = VerifyReport();
  MappedFile mapped;
  BF_RETURN_NOT_OK(MappedFile::Map(path, &mapped));
  SnapshotImage image;
  ParseMapped(mapped.data(), mapped.size(), &image, report);
  return Status::OK();
}

}  // namespace snapshot

}  // namespace blowfish
