#include "engine/ledger_journal.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "common/check.h"

namespace blowfish {

namespace {

constexpr char kMagic[8] = {'B', 'F', 'L', 'J', 'R', 'N', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
// Far above any real record (a record is one charge: a handful of
// ledger lines); a larger claimed length is garbage, not data.
constexpr uint32_t kMaxRecordBytes = 1u << 26;

bool DecodeRecord(const char* data, size_t n, JournalRecord* rec) {
  ByteReader r{data, data + n};
  const uint8_t type = r.U8();
  if (type < 1 || type > 3) return false;
  rec->type = static_cast<JournalRecord::Type>(type);
  rec->seq = r.U64();
  rec->wall_micros = static_cast<int64_t>(r.U64());
  if (rec->type == JournalRecord::Type::kCheckpoint) {
    const uint32_t count = r.U32();
    for (uint32_t i = 0; i < count && r.ok; ++i) {
      JournalRecord::CheckpointLine line;
      if (!r.Str(&line.id)) return false;
      line.total = r.F64();
      line.spent = r.F64();
      rec->checkpoint.push_back(std::move(line));
    }
  } else {
    rec->refusal = r.U8();
    rec->parallel_count = r.U32();
    rec->epsilon = r.F64();
    if (!r.Str(&rec->workload)) return false;
    if (!r.Str(&rec->context)) return false;
    const uint16_t count = r.U16();
    for (uint16_t i = 0; i < count && r.ok; ++i) {
      JournalRecord::Line line;
      if (!r.Str(&line.id)) return false;
      line.remaining = r.F64();
      rec->ledgers.push_back(std::move(line));
    }
  }
  return r.done();  // trailing bytes under a valid CRC are corruption
}

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void JournalEncodeRecord(const JournalRecord& record, std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(record.type));
  PutU64(out, record.seq);
  PutU64(out, static_cast<uint64_t>(record.wall_micros));
  if (record.type == JournalRecord::Type::kCheckpoint) {
    PutU32(out, static_cast<uint32_t>(record.checkpoint.size()));
    for (const JournalRecord::CheckpointLine& line : record.checkpoint) {
      PutLenPrefixed(out, line.id);
      PutF64(out, line.total);
      PutF64(out, line.spent);
    }
  } else {
    out->push_back(static_cast<char>(record.refusal));
    PutU32(out, record.parallel_count);
    PutF64(out, record.epsilon);
    PutLenPrefixed(out, record.workload);
    PutLenPrefixed(out, record.context);
    PutU16(out, static_cast<uint16_t>(
                    std::min<size_t>(record.ledgers.size(), 0xFFFF)));
    size_t emitted = 0;
    for (const JournalRecord::Line& line : record.ledgers) {
      if (emitted++ == 0xFFFF) break;
      PutLenPrefixed(out, line.id);
      PutF64(out, line.remaining);
    }
  }
}

std::string JournalSegmentHeader(uint64_t start_seq) {
  std::string h;
  AppendFileHeader(kMagic, kFormatVersion, start_seq, &h);
  return h;
}

// ------------------------------------------------------------- scanning

Status LedgerJournal::Scan(const std::string& dir, FileIo* io,
                           JournalScanReport* report) {
  if (io == nullptr) io = PosixFileIo();
  Result<std::vector<std::string>> listing =
      ListNumbered(io, dir, kJournalSegmentName);
  if (!listing.ok()) return listing.status();
  const std::vector<std::string>& names = *listing;

  // The next record seq the chain demands; 0 = unknown (start of scan,
  // or continuity lost to a corrupt segment — later segments are still
  // inventoried for fsck, but gaps there cannot be told apart).
  uint64_t expected_seq = 0;
  bool any_record_seen = false;

  for (size_t si = 0; si < names.size(); ++si) {
    const bool last_segment = si + 1 == names.size();
    const std::string& name = names[si];
    const std::string path = dir + "/" + name;
    JournalScanReport::Segment seg;
    seg.name = name;

    Result<std::string> data_r = io->ReadAll(path);
    if (!data_r.ok()) {
      report->errors.push_back("segment " + name + ": " +
                               data_r.status().ToString());
      report->segments.push_back(seg);
      expected_seq = 0;
      continue;
    }
    const std::string& data = *data_r;
    seg.file_bytes = data.size();

    // Segment header.
    uint64_t start_seq = 0;
    const bool header_ok =
        CheckFileHeader(data.data(), data.size(), kMagic, kFormatVersion,
                        &start_seq)
            .empty() &&
        start_seq != 0;  // seqs start at 1
    if (!header_ok) {
      if (last_segment && data.size() <= kFileHeaderBytes) {
        // A crash during rotation leaves a fresh segment with a
        // partial header and nothing after it: a torn tail whose
        // repair is deleting the file. The header is written and
        // synced before any frame, so a bad header on a segment with
        // bytes past it cannot be a rotation tear — deleting such a
        // file would discard acknowledged spends, and the damage is
        // reported as corruption instead.
        report->torn_tail = true;
        report->torn_segment = name;
        report->torn_good_bytes = 0;
      } else {
        report->errors.push_back("segment " + name +
                                 ": invalid header (magic/version/crc)");
        expected_seq = 0;
      }
      report->segments.push_back(seg);
      continue;
    }
    seg.start_seq = start_seq;
    seg.good_bytes = kFileHeaderBytes;
    if (expected_seq != 0 && start_seq != expected_seq) {
      report->errors.push_back(
          "segment " + name + ": starts at seq " + std::to_string(start_seq) +
          ", expected " + std::to_string(expected_seq) +
          " (missing or reordered segment)");
      expected_seq = 0;
    }
    if (expected_seq == 0) expected_seq = start_seq;

    // Frames.
    size_t off = kFileHeaderBytes;
    bool segment_failed = false;
    while (off < data.size()) {
      std::string_view payload;
      const FrameCheck frame = ReadFrame(data.data(), data.size(), off,
                                         kMaxRecordBytes, &payload);
      if (frame == FrameCheck::kOversized) {
        report->errors.push_back("segment " + name + ": frame at byte " +
                                 std::to_string(off) +
                                 " claims absurd length " +
                                 std::to_string(GetU32(data.data() + off)));
        segment_failed = true;
        break;
      }
      if (frame != FrameCheck::kOk) {
        // A frame that runs past EOF is the classic crash-mid-append
        // tear when it is the journal's final bytes. A crash can also
        // persist the final frame's pages partially (full length, wrong
        // bytes), so a CRC-bad *last* frame is a tear too. Anywhere
        // else either is corruption: truncating there would discard
        // acknowledged spends.
        const bool at_eof =
            frame == FrameCheck::kIncomplete ||
            off + kFrameOverhead + GetU32(data.data() + off) == data.size();
        if (last_segment && at_eof) {
          report->torn_tail = true;
          report->torn_segment = name;
          report->torn_good_bytes = off;
        } else {
          report->errors.push_back(
              "segment " + name +
              (frame == FrameCheck::kIncomplete
                   ? ": truncated frame at byte " + std::to_string(off) +
                         " with segments after it"
                   : ": CRC mismatch at byte " + std::to_string(off) +
                         " (mid-journal corruption)"));
          segment_failed = true;
        }
        break;
      }
      JournalRecord rec;
      if (!DecodeRecord(payload.data(), payload.size(), &rec)) {
        report->errors.push_back("segment " + name +
                                 ": undecodable record at byte " +
                                 std::to_string(off) + " (CRC valid)");
        segment_failed = true;
        break;
      }
      if (rec.seq != expected_seq) {
        report->errors.push_back(
            "segment " + name + ": record at byte " + std::to_string(off) +
            " has seq " + std::to_string(rec.seq) + ", expected " +
            std::to_string(expected_seq) +
            (rec.seq < expected_seq ? " (duplicate)" : " (gap)"));
        segment_failed = true;
        break;
      }
      if (!any_record_seen && start_seq != 1 &&
          rec.type != JournalRecord::Type::kCheckpoint) {
        report->errors.push_back(
            "segment " + name + ": journal starts at seq " +
            std::to_string(rec.seq) +
            " without a leading checkpoint (predecessor segments lost)");
        segment_failed = true;
        break;
      }

      // Replay.
      switch (rec.type) {
        case JournalRecord::Type::kSpend: {
          ++report->spends;
          for (const JournalRecord::Line& line : rec.ledgers) {
            RecoveredLedger& led = report->ledgers[line.id];
            led.spent += rec.epsilon;
            ++led.records;
            if (led.has_total) {
              const double replayed_remaining = led.total - led.spent;
              if (replayed_remaining != line.remaining) {
                report->warnings.push_back(
                    "ledger " + line.id + " at seq " +
                    std::to_string(rec.seq) +
                    ": journaled remaining diverges from replay by " +
                    std::to_string(line.remaining - replayed_remaining));
              }
            }
          }
          break;
        }
        case JournalRecord::Type::kRefusal:
          ++report->refusals;
          break;
        case JournalRecord::Type::kCheckpoint: {
          ++report->checkpoints;
          report->ledgers.clear();
          for (const JournalRecord::CheckpointLine& line : rec.checkpoint) {
            RecoveredLedger led;
            led.has_total = line.total >= 0.0;
            led.total = led.has_total ? line.total : 0.0;
            led.spent = line.spent;
            report->ledgers[line.id] = led;
          }
          break;
        }
      }
      any_record_seen = true;
      if (report->first_seq == 0) report->first_seq = rec.seq;
      report->last_seq = rec.seq;
      ++report->records;
      ++seg.records;
      ++expected_seq;
      off += kFrameOverhead + payload.size();
      seg.good_bytes = off;
    }
    if (segment_failed) expected_seq = 0;
    report->segments.push_back(seg);
  }
  return Status::OK();
}

// ---------------------------------------------------------------- open

LedgerJournal::LedgerJournal(JournalOptions options, FileIo* io)
    : options_(std::move(options)), io_(io) {
  m_appends_ = &local_sink_[0];
  m_append_failures_ = &local_sink_[1];
  m_fsyncs_ = &local_sink_[2];
  m_retries_ = &local_sink_[3];
  m_rotations_ = &local_sink_[4];
  m_checkpoints_ = &local_sink_[5];
  m_recovered_records_ = &local_sink_[6];
}

LedgerJournal::~LedgerJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ != nullptr) (void)active_->Close();
}

Result<std::unique_ptr<LedgerJournal>> LedgerJournal::Open(
    JournalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("journal_path must not be empty");
  }
  FileIo* io = options.io != nullptr ? options.io : PosixFileIo();
  BF_RETURN_NOT_OK(io->CreateDir(options.dir));

  JournalScanReport report;
  BF_RETURN_NOT_OK(Scan(options.dir, io, &report));
  if (!report.errors.empty()) {
    std::string msg =
        "journal corrupt; refusing recovery (run ledger_fsck " + options.dir +
        "):";
    for (const std::string& e : report.errors) msg += "\n  " + e;
    return Status::IOError(msg);
  }
  if (report.torn_tail && !options.allow_torn_tail) {
    return Status::IOError(
        "torn tail in " + report.torn_segment + " (good through byte " +
        std::to_string(report.torn_good_bytes) +
        "): the final record was cut by a crash mid-append and was never "
        "acknowledged; re-open with allow_torn_tail or run ledger_fsck " +
        options.dir);
  }

  const bool allow_torn = options.allow_torn_tail;
  std::unique_ptr<LedgerJournal> journal(
      new LedgerJournal(std::move(options), io));
  std::lock_guard<std::mutex> lock(journal->mu_);

  bool removed_torn_segment = false;
  if (report.torn_tail) {
    BF_DCHECK(allow_torn);
    const std::string path = journal->SegmentPath(report.torn_segment);
    if (report.torn_good_bytes < kFileHeaderBytes) {
      // Not even a full header survived — the segment holds nothing.
      BF_RETURN_NOT_OK(io->Remove(path));
      removed_torn_segment = true;
    } else {
      BF_RETURN_NOT_OK(io->TruncateFile(path, report.torn_good_bytes));
    }
    BF_RETURN_NOT_OK(io->SyncDir(journal->options_.dir));
    journal->recovered_torn_tail_ = true;
  }

  uint64_t last_surviving_good_bytes = 0;
  uint64_t last_surviving_start_seq = 0;
  for (const JournalScanReport::Segment& seg : report.segments) {
    if (removed_torn_segment && seg.name == report.torn_segment) continue;
    journal->segment_names_.push_back(seg.name);
    last_surviving_good_bytes =
        (report.torn_tail && seg.name == report.torn_segment)
            ? report.torn_good_bytes
            : seg.good_bytes;
    last_surviving_start_seq = seg.start_seq;
  }

  journal->next_seq_ = report.last_seq != 0 ? report.last_seq + 1
                       : last_surviving_start_seq != 0
                           ? last_surviving_start_seq
                           : 1;
  journal->recovered_ = std::move(report.ledgers);
  journal->recovered_records_at_open_ = report.records;

  if (journal->options_.metrics != nullptr) {
    MetricsRegistry* m = journal->options_.metrics;
    journal->m_appends_ = m->counter("engine_journal_appends_total");
    journal->m_append_failures_ =
        m->counter("engine_journal_append_failures_total");
    journal->m_fsyncs_ = m->counter("engine_journal_fsyncs_total");
    journal->m_retries_ = m->counter("engine_journal_io_retries_total");
    journal->m_rotations_ = m->counter("engine_journal_rotations_total");
    journal->m_checkpoints_ = m->counter("engine_journal_checkpoints_total");
    journal->m_recovered_records_ =
        m->counter("engine_journal_recovered_records_total");
    LedgerJournal* j = journal.get();
    m->gauge_callback("engine_journal_active_bytes", [j] {
      return static_cast<double>(j->stats().active_bytes);
    });
    m->gauge_callback("engine_journal_segments", [j] {
      return static_cast<double>(j->stats().segments);
    });
    m->gauge_callback("engine_journal_unclaimed_recovered", [j] {
      return static_cast<double>(j->stats().unclaimed_recovered);
    });
  }
  journal->m_recovered_records_->Add(report.records);

  if (journal->segment_names_.empty()) {
    BF_RETURN_NOT_OK(journal->RotateLocked(journal->next_seq_));
  } else {
    const std::string& name = journal->segment_names_.back();
    Result<std::unique_ptr<DurableFile>> file =
        io->OpenAppend(journal->SegmentPath(name));
    if (!file.ok()) return file.status();
    journal->active_ = std::move(file).ValueOrDie();
    journal->active_name_ = name;
    journal->active_bytes_ = last_surviving_good_bytes;
  }
  return journal;
}

// -------------------------------------------------------------- append

std::string LedgerJournal::SegmentPath(const std::string& name) const {
  return options_.dir + "/" + name;
}

void LedgerJournal::Backoff(uint64_t seq, int attempt) const {
  if (options_.retry_backoff_micros == 0) return;
  const int shift = attempt - 1 > 8 ? 8 : attempt - 1;
  const uint64_t base = static_cast<uint64_t>(options_.retry_backoff_micros)
                        << shift;
  // Deterministic pseudo-jitter (splitmix64 of seq and attempt): this
  // sits on the charge path, where the engine's only randomness source
  // must remain the calibrated noise draw — never consumed before a
  // charge commits.
  uint64_t x = seq * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(attempt);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  // Each sleep happens while holding the journal mutex AND every shard
  // lock of the in-flight charge, stalling all concurrent charges,
  // OpenLedger calls, and checkpoints — so the per-attempt cap is kept
  // small: worst case io_retries * 5ms (20ms at defaults) before the
  // charge fails closed anyway.
  const uint64_t micros = std::min<uint64_t>(base + x % base, 5000);
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

Status LedgerJournal::WriteWithRetry(DurableFile* file, const char* data,
                                     size_t n, uint64_t base_offset,
                                     uint64_t seq, size_t* landed) {
  int attempts = 0;
  size_t done = 0;
  while (done < n) {
    Result<size_t> w = file->Append(data + done, n - done);
    if (w.ok() && *w > 0) {
      // Short writes are progress, not faults: continue from where the
      // file actually is without consuming retry budget.
      done += *w;
      *landed = done;
      continue;
    }
    const Status err = w.ok()
                           ? Status::IOError("append made no progress")
                           : w.status();
    if (attempts >= options_.io_retries) return err;
    ++attempts;
    m_retries_->Add(1);
    // A failed write call may still have landed bytes (torn write), so
    // the retry cannot simply resume: cut the file back to the start
    // of this record and replay it from byte zero.
    Status t = file->Truncate(base_offset);
    if (!t.ok()) {
      return Status::IOError("append failed (" + err.ToString() +
                             ") and retry pre-truncate failed (" +
                             t.ToString() + ")");
    }
    done = 0;
    *landed = 0;
    Backoff(seq, attempts);
  }
  return Status::OK();
}

Status LedgerJournal::RotateLocked(uint64_t start_seq) {
  const std::string name = kJournalSegmentName.Format(start_seq);
  const std::string path = SegmentPath(name);
  // A previous failed rotation may have left a stale file under this
  // name; O_APPEND would write the header after its garbage.
  (void)io_->TruncateFile(path, 0);
  Result<std::unique_ptr<DurableFile>> opened = io_->OpenAppend(path);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<DurableFile> file = std::move(opened).ValueOrDie();

  const std::string header = JournalSegmentHeader(start_seq);
  size_t landed = 0;
  Status st = WriteWithRetry(file.get(), header.data(), header.size(), 0,
                             start_seq, &landed);
  if (st.ok()) {
    st = file->Sync();
    if (st.ok()) m_fsyncs_->Add(1);
  }
  if (st.ok()) st = io_->SyncDir(options_.dir);
  if (!st.ok()) {
    (void)file->Close();
    (void)io_->Remove(path);  // best effort; fsck reports a survivor
    return st;
  }

  if (active_ != nullptr) (void)active_->Close();
  active_ = std::move(file);
  active_name_ = name;
  active_bytes_ = header.size();
  segment_names_.push_back(name);
  return Status::OK();
}

Status LedgerJournal::AppendFramedLocked(const JournalRecord& record) {
  if (active_bytes_ >= options_.segment_bytes) {
    // Rotation failure is not fatal to the charge: the old segment
    // still appends fine, and the next append retries the rotation.
    if (RotateLocked(record.seq).ok()) m_rotations_->Add(1);
  }

  JournalEncodeRecord(record, &scratch_);
  std::string frame;
  frame.reserve(scratch_.size() + kFrameOverhead);
  AppendFrame(scratch_, &frame);

  const uint64_t base = active_bytes_;
  size_t landed = 0;
  Status st = WriteWithRetry(active_.get(), frame.data(), frame.size(), base,
                             record.seq, &landed);
  if (st.ok()) {
    // No fsync retry (see WriteWithRetry's header comment): a failed
    // fsync falls through to the truncate-repair below, which dirties
    // fresh pages so the next record's fsync means something again.
    st = active_->Sync();
    if (st.ok()) m_fsyncs_->Add(1);
  }
  if (st.ok()) {
    active_bytes_ += frame.size();
    m_appends_->Add(1);
    if (active_bytes_ >= options_.segment_bytes || segment_names_.size() > 1) {
      checkpoint_due_.store(true, std::memory_order_relaxed);
    }
    return Status::OK();
  }

  m_append_failures_->Add(1);
  // Fail closed — and put the file back exactly where it was, so the
  // refused record's partial bytes can never read as a torn tail.
  Status repair = active_->Truncate(base);
  if (repair.ok()) repair = active_->Sync();
  if (!repair.ok()) {
    health_ = Status::UnavailableDurability(
        "journal poisoned: append of seq " + std::to_string(record.seq) +
        " failed (" + st.ToString() + ") and tail repair failed (" +
        repair.ToString() + "); refusing all further charges");
    return health_;
  }
  return Status::UnavailableDurability(
      "charge refused: journal append of seq " + std::to_string(record.seq) +
      " not durable after " + std::to_string(options_.io_retries) +
      " retries: " + st.ToString());
}

Status LedgerJournal::AppendCharge(bool charged, StatusCode refusal,
                                   double epsilon, uint32_t parallel_count,
                                   std::string_view workload,
                                   const std::string* context,
                                   const ChargeLine* lines, size_t count) {
  if (count > kMaxChargeLines) {
    // The frame's line count is a u16; truncating the record instead
    // would leave admitted spends with no durable cover, so a charge
    // this wide is refused before a byte is written.
    return Status::UnavailableDurability(
        "charge refused: " + std::to_string(count) +
        " ledger lines exceed the journal record's capacity of " +
        std::to_string(kMaxChargeLines));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;

  JournalRecord rec;
  rec.type = charged ? JournalRecord::Type::kSpend
                     : JournalRecord::Type::kRefusal;
  rec.seq = next_seq_;
  // Clamped against the previous record: seq order is replay order,
  // and a backwards system_clock step must not produce a journal whose
  // timestamps contradict it.
  rec.wall_micros = std::max(WallMicros(), last_wall_micros_);
  last_wall_micros_ = rec.wall_micros;
  rec.refusal = charged ? 0 : static_cast<uint8_t>(refusal);
  rec.parallel_count = parallel_count;
  rec.epsilon = epsilon;
  rec.workload.assign(workload.data(), workload.size());
  if (context != nullptr) rec.context = *context;
  rec.ledgers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    BF_DCHECK(lines[i].id != nullptr);
    rec.ledgers.push_back(JournalRecord::Line{*lines[i].id,
                                              lines[i].remaining});
  }

  BF_RETURN_NOT_OK(AppendFramedLocked(rec));
  ++next_seq_;
  return Status::OK();
}

Status LedgerJournal::Checkpoint(
    const std::vector<JournalRecord::CheckpointLine>& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;

  JournalRecord rec;
  rec.type = JournalRecord::Type::kCheckpoint;
  rec.seq = next_seq_;
  rec.wall_micros = std::max(WallMicros(), last_wall_micros_);
  last_wall_micros_ = rec.wall_micros;
  rec.checkpoint = snapshot;
  // Recovered balances nobody has re-opened yet must survive
  // compaction: fold them into the snapshot (live lines win when a
  // caller skipped TakeRecovered).
  if (!recovered_.empty()) {
    std::set<std::string> live;
    for (const JournalRecord::CheckpointLine& line : snapshot) {
      live.insert(line.id);
    }
    for (const auto& [id, led] : recovered_) {
      if (live.count(id) != 0) continue;
      rec.checkpoint.push_back(JournalRecord::CheckpointLine{
          id, led.has_total ? led.total : -1.0, led.spent});
    }
  }

  // The checkpoint opens a fresh segment; if anything past this point
  // fails, the old segments are still intact and recovery still works
  // (a header-only trailing segment is legal).
  BF_RETURN_NOT_OK(RotateLocked(rec.seq));
  BF_RETURN_NOT_OK(AppendFramedLocked(rec));
  ++next_seq_;

  // Only now that the snapshot is durable do the old segments die.
  // Remove failures leave stale predecessors, which replay harmlessly:
  // the checkpoint record resets the ledger map mid-replay.
  const std::string keep = active_name_;
  for (const std::string& old : segment_names_) {
    if (old != keep) (void)io_->Remove(SegmentPath(old));
  }
  (void)io_->SyncDir(options_.dir);
  segment_names_.assign(1, keep);
  checkpoint_due_.store(false, std::memory_order_relaxed);
  m_checkpoints_->Add(1);
  return Status::OK();
}

bool LedgerJournal::TakeRecovered(const std::string& id, RecoveredLedger* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = recovered_.find(id);
  if (it == recovered_.end()) return false;
  *out = it->second;
  recovered_.erase(it);
  return true;
}

void LedgerJournal::ReturnRecovered(const std::string& id,
                                    const RecoveredLedger& led) {
  std::lock_guard<std::mutex> lock(mu_);
  recovered_.emplace(id, led);
}

Status LedgerJournal::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

LedgerJournal::Stats LedgerJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.appends = m_appends_->value();
  s.append_failures = m_append_failures_->value();
  s.fsyncs = m_fsyncs_->value();
  s.retries = m_retries_->value();
  s.rotations = m_rotations_->value();
  s.checkpoints = m_checkpoints_->value();
  s.recovered_records = recovered_records_at_open_;
  s.recovered_torn_tail = recovered_torn_tail_;
  s.next_seq = next_seq_;
  s.active_bytes = active_bytes_;
  s.segments = segment_names_.size();
  s.unclaimed_recovered = recovered_.size();
  return s;
}

}  // namespace blowfish
