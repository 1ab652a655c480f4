#include "engine/snapshot_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"

namespace blowfish {

namespace {

constexpr char kMagic[8] = {'B', 'F', 'S', 'N', 'A', 'P', 'S', '1'};
constexpr uint32_t kFormatVersion = 1;
// A section is one policy (graph + data) or one transform; even a
// millions-of-edges graph stays far under this. A larger claimed
// length is garbage, not data.
constexpr uint32_t kMaxSectionBytes = 1u << 30;

constexpr uint8_t kSectionPolicy = 1;
constexpr uint8_t kSectionTransform = 2;
constexpr uint8_t kSectionFooter = 3;

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

std::string SerializeImage(const SnapshotImage& image, uint64_t generation) {
  std::string out;
  AppendFileHeader(kMagic, kFormatVersion, generation, &out);

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
  uint64_t generation = 0;
  std::string bad = CheckFileHeader(data, size, kMagic, kFormatVersion,
                                    &generation);
  if (!bad.empty()) {
    report->errors.push_back(std::move(bad));
    return false;
  }
  report->generation = generation;
  image->generation = generation;
  report->valid_prefix_bytes = kFileHeaderBytes;

  size_t offset = kFileHeaderBytes;
  uint32_t footer_sections = 0;
  while (offset < size) {
    std::string_view payload;
    const FrameCheck frame =
        ReadFrame(data, size, offset, kMaxSectionBytes, &payload);
    if (frame != FrameCheck::kOk) {
      // Unlike a journal tail, a damaged frame fails the whole file:
      // the caller falls back to the previous generation.
      report->errors.push_back(
          (frame == FrameCheck::kBadCrc ? "section CRC mismatch at byte "
                                        : "truncated or oversized section "
                                          "at byte ") +
          std::to_string(offset));
      return false;
    }
    if (report->footer_ok) {
      report->errors.push_back("data after footer at byte " +
                               std::to_string(offset));
      return false;
    }
    ByteReader r{payload.data(), payload.data() + payload.size()};
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
    offset += kFrameOverhead + payload.size();
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

/// Writes `bytes` to `path` through `io` and fsyncs it.
Status WriteTmpFile(FileIo* io, const std::string& path,
                    const std::string& bytes) {
  Result<std::unique_ptr<DurableFile>> opened = io->OpenAppend(path);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<DurableFile> file = std::move(opened).ValueOrDie();
  // A crash mid-write can leave a stale tmp under this name; appending
  // after its bytes would prefix the new generation with garbage.
  Status st = file->Truncate(0);
  for (size_t off = 0; st.ok() && off < bytes.size();) {
    Result<size_t> w = file->Append(bytes.data() + off, bytes.size() - off);
    if (w.ok()) {
      off += *w;  // a short write is progress; 0 is an interrupted call
    } else {
      st = w.status();
    }
  }
  if (st.ok()) st = file->Sync();
  const Status closed = file->Close();
  return st.ok() ? closed : st;
}

}  // namespace

namespace snapshot {

Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           FileIo* io) {
  Result<std::vector<std::string>> names =
      ListNumbered(io != nullptr ? io : PosixFileIo(), dir, kFileName);
  if (!names.ok() && names.status().code() == StatusCode::kNotFound) {
    return std::vector<std::string>();  // nothing written yet
  }
  return names;
}

Status Write(const std::string& dir, const SnapshotImage& image,
             size_t keep_generations, FileIo* io) {
  if (dir.empty()) {
    return Status::InvalidArgument("snapshot directory not configured");
  }
  if (io == nullptr) io = PosixFileIo();
  BF_RETURN_NOT_OK(io->CreateDir(dir));
  Result<std::vector<std::string>> listed = ListFiles(dir, io);
  if (!listed.ok()) return listed.status();
  std::vector<std::string> names = *listed;
  uint64_t newest = 0;
  if (!names.empty()) kFileName.Parse(names.back(), &newest);
  const uint64_t generation = newest + 1;

  const std::string bytes = SerializeImage(image, generation);
  names.push_back(kFileName.Format(generation));
  const std::string final_path = dir + "/" + names.back();
  const std::string tmp_path = final_path + ".tmp";
  Status st = WriteTmpFile(io, tmp_path, bytes);
  if (st.ok()) st = io->Rename(tmp_path, final_path);
  if (!st.ok()) {
    // Best effort; a SIGKILL mid-write can still leave the tmp, which
    // the next write of this generation empties before use.
    (void)io->Remove(tmp_path);
    return st;
  }
  BF_RETURN_NOT_OK(io->SyncDir(dir));

  // Prune: the new generation is durable, so older files beyond the
  // keep window are dead weight. Keep >= 1 older generation when
  // asked to, as the fallback for a future torn write.
  const size_t keep = std::max<size_t>(keep_generations, 1);
  for (size_t i = 0; i + keep < names.size(); ++i) {
    // Best effort: a surviving stale file is re-pruned next write.
    (void)io->Remove(dir + "/" + names[i]);
  }
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
  Result<std::vector<std::string>> listed = ListFiles(dir);
  if (!listed.ok()) {
    // Unreadable directory is a cold start, not a refusal.
    report->skipped.push_back(dir + ": " + listed.status().message());
    return Status::OK();
  }
  const std::vector<std::string>& names = *listed;
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
