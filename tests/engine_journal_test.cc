// Crash-safe ε-ledger journal tests: wire-format recovery edges
// (torn tails, corruption, seq gaps, checkpoint+tail equivalence),
// fault-injected append/fsync failures against the production retry
// and fail-closed paths, and end-to-end engine recovery — every
// charge the engine admits must be covered by a durable record, and
// a journal that cannot make a record durable must refuse the charge
// without drawing noise.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/budget_accountant.h"
#include "engine/ledger_journal.h"
#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

// ------------------------------------------------------------ fixtures

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/bfjournal.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    // Best-effort cleanup; stray files are in /tmp anyway.
    JournalScanReport report;
    if (LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok()) {
      for (const auto& segment : report.segments) {
        (void)PosixFileIo()->Remove(dir_ + "/" + segment.name);
      }
    }
    ::rmdir(dir_.c_str());
  }

  JournalOptions Options() {
    JournalOptions options;
    options.dir = dir_;
    options.retry_backoff_micros = 0;  // keep fault tests fast
    return options;
  }

  std::string dir_;
};

JournalRecord Spend(uint64_t seq, const std::string& id, double epsilon,
                    double remaining) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kSpend;
  rec.seq = seq;
  rec.epsilon = epsilon;
  rec.workload = "w";
  rec.ledgers.push_back(JournalRecord::Line{id, remaining});
  return rec;
}

// Writes a raw segment file from already-framed body bytes.
void WriteSegment(const std::string& dir, uint64_t start_seq,
                  const std::string& body) {
  const std::string path = dir + "/" + kJournalSegmentName.Format(start_seq);
  std::string bytes = JournalSegmentHeader(start_seq) + body;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string Frame(const JournalRecord& rec) {
  std::string payload;
  JournalEncodeRecord(rec, &payload);
  std::string framed;
  AppendFrame(payload, &framed);
  return framed;
}

Status AppendSpend(LedgerJournal* journal, const std::string& id,
                   double epsilon, double remaining) {
  LedgerJournal::ChargeLine line;
  line.id = &id;
  line.remaining = remaining;
  return journal->AppendCharge(/*charged=*/true, StatusCode::kOk, epsilon, 1,
                               "w", nullptr, &line, 1);
}

// --------------------------------------------------- clean round trips

TEST_F(JournalTest, FreshDirectoryOpensEmpty) {
  Result<std::unique_ptr<LedgerJournal>> journal = LedgerJournal::Open(Options());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const LedgerJournal::Stats stats = (*journal)->stats();
  EXPECT_EQ(stats.next_seq, 1u);
  EXPECT_EQ(stats.recovered_records, 0u);
  EXPECT_EQ(stats.segments, 1u);  // header-only active segment
  EXPECT_TRUE((*journal)->health().ok());
}

TEST_F(JournalTest, ReplayIsBitExactAndConsumeOnce) {
  const std::string alice = "session/alice";
  const std::string cap = "policy/p";
  double spent_alice = 0.0;
  double spent_cap = 0.0;
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    for (int i = 0; i < 17; ++i) {
      const double eps = 0.01 * (i + 1);
      spent_alice += eps;
      spent_cap += eps;
      ASSERT_TRUE(AppendSpend(journal.get(), alice, eps, 3.0 - spent_alice).ok());
      ASSERT_TRUE(AppendSpend(journal.get(), cap, eps, 4.0 - spent_cap).ok());
    }
  }
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  EXPECT_EQ(journal->stats().recovered_records, 34u);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(alice, &led));
  // Replay performs the same `spent += ε` chain in the same order, so
  // the recovered total is the identical double, not merely close.
  EXPECT_EQ(led.spent, spent_alice);
  EXPECT_EQ(led.records, 17u);
  EXPECT_FALSE(journal->TakeRecovered(alice, &led));  // consumed
  ASSERT_TRUE(journal->TakeRecovered(cap, &led));
  EXPECT_EQ(led.spent, spent_cap);
  // New appends continue the seq chain past the replayed records.
  EXPECT_EQ(journal->stats().next_seq, 35u);
  ASSERT_TRUE(AppendSpend(journal.get(), alice, 0.5, 0.0).ok());
}

TEST_F(JournalTest, RefusalsReplayToZeroSpend) {
  const std::string bob = "session/bob";
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    LedgerJournal::ChargeLine line;
    line.id = &bob;
    line.remaining = 0.4;
    ASSERT_TRUE(journal
                    ->AppendCharge(/*charged=*/false, StatusCode::kOutOfRange,
                                   1.0, 1, "greedy", nullptr, &line, 1)
                    .ok());
  }
  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  EXPECT_EQ(report.refusals, 1u);
  EXPECT_EQ(report.spends, 0u);

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  // A refusal spends nothing, so replay leaves no balance to restore —
  // the ledger re-opens at its full budget.
  RecoveredLedger led;
  EXPECT_FALSE(journal->TakeRecovered(bob, &led));
}

TEST_F(JournalTest, HeaderOnlyTrailingSegmentIsLegal) {
  WriteSegment(dir_, 1, "");
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  EXPECT_EQ(journal->stats().next_seq, 1u);
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());
}

// ------------------------------------------------------ torn & corrupt

TEST_F(JournalTest, TornTailRefusedWithoutFlagRepairedWithIt) {
  const std::string good1 = Frame(Spend(1, "session/a", 0.25, 0.75));
  const std::string good2 = Frame(Spend(2, "session/a", 0.25, 0.5));
  const std::string torn = Frame(Spend(3, "session/a", 0.25, 0.25));
  WriteSegment(dir_, 1,
               good1 + good2 + torn.substr(0, torn.size() - 5));

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.records, 2u);

  Result<std::unique_ptr<LedgerJournal>> refused = LedgerJournal::Open(Options());
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("allow_torn_tail"),
            std::string::npos)
      << refused.status().ToString();

  JournalOptions options = Options();
  options.allow_torn_tail = true;
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  EXPECT_TRUE(journal->stats().recovered_torn_tail);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 2u);
  EXPECT_EQ(led.spent, 0.25 + 0.25);
  // The tear was truncated out of the file on disk.
  const std::string bytes =
      PosixFileIo()
          ->ReadAll(dir_ + "/" + kJournalSegmentName.Format(1))
          .ValueOrDie();
  EXPECT_EQ(bytes.size(), report.torn_good_bytes);
  // And the journal keeps appending where the verified tail ended.
  EXPECT_EQ(journal->stats().next_seq, 3u);
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.25).ok());
}

TEST_F(JournalTest, BadHeaderFinalSegmentIsTearOnlyWhenHeaderSized) {
  // Segment 1 holds an acknowledged spend; the final segment's header
  // is garbage but the file has bytes past the 24-byte header. The
  // header is written and synced before any frame, so this cannot be a
  // rotation tear — recovery must refuse rather than delete what could
  // be acknowledged spends.
  WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.25, 0.75)));
  const std::string late = dir_ + "/" + kJournalSegmentName.Format(2);
  std::string garbage(64, '\xee');
  std::FILE* f = std::fopen(late.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
            garbage.size());
  std::fclose(f);

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.errors.empty());
  JournalOptions options = Options();
  options.allow_torn_tail = true;  // must not help
  EXPECT_FALSE(LedgerJournal::Open(options).ok());

  // A partial header (<= 24 bytes) with nothing after it IS the
  // crash-during-rotation signature: deletable, and the acknowledged
  // spend in segment 1 survives recovery.
  ASSERT_TRUE(PosixFileIo()->TruncateFile(late, 10).ok());
  JournalScanReport torn_report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &torn_report).ok());
  EXPECT_TRUE(torn_report.torn_tail);
  EXPECT_TRUE(torn_report.errors.empty());
  EXPECT_EQ(torn_report.torn_good_bytes, 0u);
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  EXPECT_TRUE(journal->stats().recovered_torn_tail);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.spent, 0.25);
}

TEST_F(JournalTest, MidFileCorruptionAlwaysRefuses) {
  const std::string good1 = Frame(Spend(1, "session/a", 0.25, 0.75));
  std::string bad = Frame(Spend(2, "session/a", 0.25, 0.5));
  bad[bad.size() / 2] ^= 0x40;  // damage payload under an old CRC
  const std::string good3 = Frame(Spend(3, "session/a", 0.25, 0.25));
  WriteSegment(dir_, 1, good1 + bad + good3);

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  EXPECT_FALSE(report.errors.empty());
  EXPECT_FALSE(report.torn_tail);  // data follows the damage: not a tear

  JournalOptions options = Options();
  options.allow_torn_tail = true;  // must not help
  Result<std::unique_ptr<LedgerJournal>> refused = LedgerJournal::Open(options);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("ledger_fsck"), std::string::npos);
}

TEST_F(JournalTest, SeqGapAndDuplicateRefuse) {
  {
    WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.1, 0.9)) +
                              Frame(Spend(3, "session/a", 0.1, 0.8)));
    JournalScanReport report;
    ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
    EXPECT_FALSE(report.errors.empty());
    EXPECT_FALSE(LedgerJournal::Open(Options()).ok());
    ASSERT_TRUE(
        PosixFileIo()->Remove(dir_ + "/" + kJournalSegmentName.Format(1)).ok());
  }
  WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.1, 0.9)) +
                            Frame(Spend(1, "session/a", 0.1, 0.8)));
  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  EXPECT_FALSE(report.errors.empty());
  EXPECT_FALSE(LedgerJournal::Open(Options()).ok());
}

// ----------------------------------------------- checkpoint/compaction

TEST_F(JournalTest, CheckpointCompactsAndReplayMatchesStraightLine) {
  const std::string id = "session/a";
  // Straight-line journal: 8 spends, no checkpoint.
  double straight = 0.0;
  for (int i = 0; i < 8; ++i) straight += 0.01 * (i + 1);

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  double spent = 0.0;
  for (int i = 0; i < 4; ++i) {
    const double eps = 0.01 * (i + 1);
    spent += eps;
    ASSERT_TRUE(AppendSpend(journal.get(), id, eps, 1.0 - spent).ok());
  }
  std::vector<JournalRecord::CheckpointLine> snapshot;
  snapshot.push_back(JournalRecord::CheckpointLine{id, 1.0, spent});
  ASSERT_TRUE(journal->Checkpoint(snapshot).ok());
  EXPECT_FALSE(journal->checkpoint_due());
  for (int i = 4; i < 8; ++i) {
    const double eps = 0.01 * (i + 1);
    spent += eps;
    ASSERT_TRUE(AppendSpend(journal.get(), id, eps, 1.0 - spent).ok());
  }
  EXPECT_EQ(journal->stats().segments, 1u);  // compacted
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered(id, &led));
  // checkpoint(spent after 4) + tail(4 more) replays to the same
  // double as never checkpointing at all.
  EXPECT_EQ(led.spent, straight);
  ASSERT_TRUE(led.has_total);
  EXPECT_EQ(led.total, 1.0);
}

TEST_F(JournalTest, CheckpointCarriesUnclaimedRecoveredBalances) {
  const std::string orphan = "session/orphan";
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    ASSERT_TRUE(AppendSpend(journal.get(), orphan, 0.3, 0.7).ok());
  }
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    // Nobody re-opened `orphan` (no TakeRecovered) — compaction must
    // still carry its spend forward.
    ASSERT_TRUE(journal->Checkpoint({}).ok());
  }
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(orphan, &led));
  EXPECT_EQ(led.spent, 0.3);
  EXPECT_FALSE(led.has_total);  // cap was never known
}

// ------------------------------------------- accountant journal lines

TEST_F(JournalTest, WideChargeJournalsEveryLine) {
  // Six ledger lines — past the audit ring's fixed 4-line event,
  // including a repeated handle (each occurrence is one line). Every
  // admitted spend must be covered by the durable record, so recovery
  // must replay all six lines, not the first four.
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    BudgetAccountant accountant;
    accountant.SetJournal(journal.get());
    LedgerHandle handles[6];
    for (int i = 0; i < 5; ++i) {
      handles[i] =
          accountant.OpenLedger("wide/" + std::to_string(i), 1.0).ValueOrDie();
    }
    handles[5] = handles[0];  // wide/0 composes 2·ε sequentially
    ChargeTag tag;
    tag.workload = "wide";
    ASSERT_TRUE(accountant.Charge(handles, 6, 0.125, tag).ok());
    accountant.SetJournal(nullptr);
  }
  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    RecoveredLedger led;
    ASSERT_TRUE(reopened->TakeRecovered("wide/" + std::to_string(i), &led))
        << "ledger wide/" << i << " lost by recovery";
    EXPECT_EQ(led.spent, i == 0 ? 0.25 : 0.125) << "wide/" << i;
  }
}

TEST_F(JournalTest, ChargeWiderThanWireFormatRefusedOutright) {
  // The frame's line count is a u16; a wider charge must be refused
  // before any bytes land, never silently truncated.
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  const std::string id = "session/a";
  std::vector<LedgerJournal::ChargeLine> lines(
      LedgerJournal::kMaxChargeLines + 1);
  for (LedgerJournal::ChargeLine& line : lines) line.id = &id;
  Status refused =
      journal->AppendCharge(/*charged=*/true, StatusCode::kOk, 0.001, 1, "w",
                            nullptr, lines.data(), lines.size());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  EXPECT_EQ(journal->stats().appends, 0u);
  // Neither a seq was consumed nor the journal hurt.
  EXPECT_TRUE(journal->health().ok());
  ASSERT_TRUE(AppendSpend(journal.get(), id, 0.1, 0.9).ok());
}

TEST_F(JournalTest, FailedRestoreHandsRecoveredBalanceBack) {
  // A checkpoint carrying a negative spent cannot be applied to a
  // fresh ledger (RestoreSpent refuses it). The failed OpenLedger must
  // return the balance to the journal: a retried open fails the same
  // way instead of silently succeeding with a refilled budget.
  const std::string id = "session/neg";
  JournalRecord rec;
  rec.type = JournalRecord::Type::kCheckpoint;
  rec.seq = 1;
  rec.checkpoint.push_back(JournalRecord::CheckpointLine{id, 1.0, -0.5});
  WriteSegment(dir_, 1, Frame(rec));

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  BudgetAccountant accountant;
  accountant.SetJournal(journal.get());
  EXPECT_FALSE(accountant.OpenLedger(id, 1.0).ok());
  EXPECT_FALSE(accountant.OpenLedger(id, 1.0).ok());  // still not refilled
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(id, &led));  // balance still held
  EXPECT_EQ(led.spent, -0.5);
  accountant.SetJournal(nullptr);
}

// ------------------------------------------------------ injected faults

TEST_F(JournalTest, TransientAppendFailureIsRiddenOut) {
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  // Fail the next two appends, leaving 3 torn bytes each time —
  // within the retry budget (4), and the retries must first truncate
  // the torn bytes back out or replay sees garbage.
  plan.torn_bytes_on_failure = 3;
  plan.fail_append_count = 2;
  plan.fail_append_at = plan.append_calls.load() + 1;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.75).ok());
  EXPECT_GE(journal->stats().retries, 2u);
  EXPECT_EQ(journal->stats().append_failures, 0u);
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 1u);  // exactly once, no duplicated frames
  EXPECT_EQ(led.spent, 0.25);
}

TEST_F(JournalTest, ShortWritesAreProgressNotFaults) {
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  plan.short_append_at = plan.append_calls.load() + 1;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.75).ok());
  EXPECT_EQ(journal->stats().retries, 0u);  // no retry budget consumed
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 1u);
}

TEST_F(JournalTest, DeadDiskFailsClosedAndStaysUsable) {
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  options.io_retries = 2;
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());

  plan.fail_append_at = plan.append_calls.load() + 1;  // unbounded count
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.8);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  EXPECT_EQ(journal->stats().append_failures, 1u);
  // The give-up truncated the partial record back out: the journal is
  // refusing charges, not poisoned, and works once the disk returns.
  EXPECT_TRUE(journal->health().ok());
  plan.fail_append_at = 0;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.8).ok());
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 2u);  // the refused spend left no trace
  EXPECT_EQ(led.spent, 0.1 + 0.1);
}

TEST_F(JournalTest, FsyncFailureRefusesWithoutRetryingSync) {
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  const uint64_t syncs_before = plan.sync_calls.load();
  plan.fail_sync_count = 1;
  plan.fail_sync_at = syncs_before + 1;
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  // One failed data sync + one repair sync — never "retry fsync until
  // it says yes" (a failed fsync can mark dirty pages clean; a later
  // success would claim durability that never happened).
  EXPECT_EQ(plan.sync_calls.load(), syncs_before + 2);
  EXPECT_TRUE(journal->health().ok());
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());
}

TEST_F(JournalTest, UnrepairableFailurePoisonsEveryLaterCharge) {
  FileFaultPlan plan;
  FaultInjectingFileIo io(PosixFileIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  // Data fsync fails AND the repair fsync fails: the tail state is
  // unknowable, so the journal must go sticky-unavailable.
  plan.fail_sync_count = 2;
  plan.fail_sync_at = plan.sync_calls.load() + 1;
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(refused.ok());
  ASSERT_FALSE(journal->health().ok());
  EXPECT_EQ(journal->health().code(), StatusCode::kUnavailableDurability);

  // Disk is "fixed" now; the poisoned journal must still refuse.
  plan.fail_sync_at = 0;
  Status still = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.code(), StatusCode::kUnavailableDurability);
}

// ----------------------------------------------------- engine-level

Vector Ramp(size_t n, size_t mod) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % mod);
  return x;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST_F(JournalTest, EngineRecoversBalancesBitExact) {
  EngineOptions options;
  options.seed = 7;
  options.journal_path = dir_;
  double session_remaining = 0.0;
  double policy_remaining = 0.0;
  {
    auto engine = QueryEngine::Open(options).ValueOrDie();
    ASSERT_TRUE(engine->RegisterPolicy("salaries", LinePolicy(16),
                                       Ramp(16, 13), 4.0)
                    .ok());
    ASSERT_TRUE(engine->OpenSession("alice", 3.0).ok());
    QueryRequest request;
    request.session = "alice";
    request.policy = "salaries";
    request.workload = IdentityWorkload(16);
    for (int i = 0; i < 9; ++i) {
      request.epsilon = 0.01 + 0.001 * i;
      ASSERT_TRUE(engine->Submit(request).ok());
    }
    session_remaining = engine->SessionRemaining("alice").ValueOrDie();
    policy_remaining = engine->PolicyRemaining("salaries").ValueOrDie();
  }
  auto engine = QueryEngine::Open(options).ValueOrDie();
  EXPECT_GT(engine->journal()->stats().recovered_records, 0u);
  ASSERT_TRUE(
      engine->RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
          .ok());
  ASSERT_TRUE(engine->OpenSession("alice", 3.0).ok());
  EXPECT_TRUE(BitEqual(engine->SessionRemaining("alice").ValueOrDie(),
                       session_remaining));
  EXPECT_TRUE(BitEqual(engine->PolicyRemaining("salaries").ValueOrDie(),
                       policy_remaining));
  EXPECT_TRUE(engine->durability_health().ok());
}

TEST_F(JournalTest, SegmentsAreOwnerOnly) {
  // Segments name every tenant and its spend history: no group or
  // other access bits, whatever the process umask allows.
  EngineOptions options;
  options.journal_path = dir_;
  auto engine = QueryEngine::Open(options).ValueOrDie();
  ASSERT_TRUE(
      engine->RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
          .ok());
  ASSERT_TRUE(engine->OpenSession("alice", 3.0).ok());
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.5;
  ASSERT_TRUE(engine->Submit(request).ok());

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixFileIo(), &report).ok());
  ASSERT_FALSE(report.segments.empty());
  for (const auto& segment : report.segments) {
    struct stat st;
    ASSERT_EQ(::stat((dir_ + "/" + segment.name).c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 077, 0u) << segment.name;
  }
}

TEST_F(JournalTest, EngineJournalFailureRefusesChargeAndDrawsNoNoise) {
  // Twin engines, same seed. A skips the doomed submit entirely; B
  // attempts it against a dead journal and must be refused. If the
  // refusal drew any noise, B's later answers would diverge from A's.
  FileFaultPlan plan;
  FaultInjectingFileIo faulty(PosixFileIo(), &plan);
  auto run = [&](bool inject_failure, const std::string& journal_dir,
                 FileIo* io, Vector* final_answers,
                 double* remaining) -> Status {
    EngineOptions options;
    options.seed = 20150831;
    options.journal_path = journal_dir;
    options.file_io = io;
    options.journal_io_retries = 1;
    options.journal_retry_backoff_micros = 0;
    auto opened = QueryEngine::Open(options);
    BF_RETURN_NOT_OK(opened.status());
    QueryEngine& engine = **opened;
    BF_RETURN_NOT_OK(engine.RegisterPolicy(
        "mobility", GridPolicy(DomainShape({8, 8}), 2), Ramp(64, 17), 8.0));
    BF_RETURN_NOT_OK(engine.OpenSession("alice", 4.0));

    // The range path draws per-submit reconstruction noise, so answer
    // equality across the twins is sensitive to any stray draw.
    QueryRequest scan;
    scan.session = "alice";
    scan.policy = "mobility";
    scan.ranges = RangeWorkload("probe", DomainShape({8, 8}),
                                {{{0, 0}, {3, 3}}, {{2, 1}, {7, 7}}});
    scan.epsilon = 0.11;
    Result<QueryResult> first = engine.Submit(scan);
    BF_RETURN_NOT_OK(first.status());

    if (inject_failure) {
      plan.fail_append_at = plan.append_calls.load() + 1;
      QueryRequest doomed = scan;
      doomed.epsilon = 0.07;
      Result<QueryResult> refused = engine.Submit(doomed);
      if (refused.ok()) {
        return Status::Internal("doomed submit was admitted");
      }
      if (refused.status().code() != StatusCode::kUnavailableDurability) {
        return refused.status();
      }
      plan.fail_append_at = 0;
    }

    QueryRequest probe = scan;
    probe.epsilon = 0.13;
    Result<QueryResult> last = engine.Submit(probe);
    BF_RETURN_NOT_OK(last.status());
    *final_answers = (*last).answers;
    *remaining = engine.SessionRemaining("alice").ValueOrDie();
    return Status::OK();
  };

  char tmpl[] = "/tmp/bfjournal.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string twin_dir = tmpl;

  Vector answers_a, answers_b;
  double remaining_a = 0.0, remaining_b = 0.0;
  ASSERT_TRUE(
      run(false, dir_, PosixFileIo(), &answers_a, &remaining_a).ok());
  ASSERT_TRUE(run(true, twin_dir, &faulty, &answers_b, &remaining_b).ok());

  ASSERT_EQ(answers_a.size(), answers_b.size());
  for (size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_TRUE(BitEqual(answers_a[i], answers_b[i])) << "answer " << i;
  }
  // The refused charge spent nothing either.
  EXPECT_TRUE(BitEqual(remaining_a, remaining_b));

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(twin_dir, PosixFileIo(), &report).ok());
  for (const auto& segment : report.segments) {
    (void)PosixFileIo()->Remove(twin_dir + "/" + segment.name);
  }
  ::rmdir(twin_dir.c_str());
}

TEST_F(JournalTest, CorruptJournalPoisonsEngineFailClosed) {
  // A journal Open() refuses must poison a plainly-constructed engine:
  // every Admit refuses, and the Open factory surfaces the error.
  std::string garbage(64, '\xee');
  const std::string path = dir_ + "/" + kJournalSegmentName.Format(1);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
  // Garbage + a healthy later segment = mid-journal corruption (the
  // bad header is not the last segment, so it cannot be a tear).
  WriteSegment(dir_, 2, Frame(Spend(2, "session/a", 0.1, 0.9)));

  EngineOptions options;
  options.journal_path = dir_;
  EXPECT_FALSE(QueryEngine::Open(options).ok());

  QueryEngine engine(options);
  EXPECT_FALSE(engine.durability_health().ok());
  ASSERT_TRUE(
      engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
          .ok());
  ASSERT_TRUE(engine.OpenSession("alice", 3.0).ok());
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.01;
  Result<QueryResult> refused = engine.Submit(request);
  ASSERT_FALSE(refused.ok());
  // Batches take the same path: no entry is charged unjournaled.
  for (const Result<QueryResult>& entry :
       engine.SubmitBatch({request, request})) {
    EXPECT_EQ(entry.status().code(), refused.status().code());
  }
  EXPECT_EQ(*engine.SessionRemaining("alice"), 3.0);

  (void)PosixFileIo()->Remove(path);
  (void)PosixFileIo()->Remove(dir_ + "/" + kJournalSegmentName.Format(2));
}

TEST_F(JournalTest, BatchOnlyTrafficCheckpointsAndStaysCompact) {
  // A small segment size fills every few dozen charges; without a
  // checkpoint after each batch the rotated segments pile up forever.
  EngineOptions options;
  options.seed = 5;
  options.journal_path = dir_;
  options.journal_segment_bytes = 1u << 12;
  Result<std::unique_ptr<QueryEngine>> opened = QueryEngine::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  QueryEngine& engine = **opened;
  ASSERT_TRUE(
      engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 1e6)
          .ok());
  ASSERT_TRUE(engine.OpenSession("alice", 1e6).ok());
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.01;

  size_t max_segments = 0;
  for (int i = 0; i < 200; ++i) {
    for (const Result<QueryResult>& result :
         engine.SubmitBatch({request, request})) {
      ASSERT_TRUE(result.ok());
    }
    max_segments = std::max(max_segments, engine.journal()->stats().segments);
  }
  // Each due checkpoint compacts into a fresh segment before the size
  // trigger would rotate, so the directory never holds more than the
  // active segment and the one being compacted away.
  EXPECT_GT(engine.journal()->stats().checkpoints, 2u);
  EXPECT_LE(max_segments, 2u);
}

// ------------------------------------------------- audit JSONL replay

TEST(AuditJsonlTest, DurabilityRefusalHasItsOwnLabel) {
  AuditEvent event;
  event.seq = 1;
  event.charged = false;
  event.refusal = StatusCode::kUnavailableDurability;
  event.epsilon = 0.25;
  std::string line;
  EpsilonAuditLog::AppendJsonl(event, &line);
  EXPECT_NE(line.find("\"durability_unavailable\""), std::string::npos) << line;
}

TEST(AuditJsonlTest, ReplayDetectsGapsAndRegressions) {
  auto make = [](uint64_t seq) {
    AuditEvent event;
    event.seq = seq;
    event.charged = true;
    event.epsilon = 0.1;
    return event;
  };
  std::string jsonl;
  EpsilonAuditLog::AppendJsonl(make(1), &jsonl);
  EpsilonAuditLog::AppendJsonl(make(2), &jsonl);
  EpsilonAuditLog::AppendJsonl(make(3), &jsonl);
  JsonlReplayReport clean = EpsilonAuditLog::ReplayJsonl(jsonl);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.events, 3u);
  EXPECT_EQ(clean.first_seq, 1u);
  EXPECT_EQ(clean.last_seq, 3u);

  // A ring that wrapped between export windows drops events: gap.
  std::string gappy;
  EpsilonAuditLog::AppendJsonl(make(1), &gappy);
  EpsilonAuditLog::AppendJsonl(make(5), &gappy);
  JsonlReplayReport gap = EpsilonAuditLog::ReplayJsonl(gappy);
  EXPECT_FALSE(gap.clean());
  EXPECT_EQ(gap.seq_gaps, 1u);
  EXPECT_EQ(gap.missing_events, 3u);
  EXPECT_TRUE(gap.errors.empty());

  // A duplicate seq is stream corruption, not a drop.
  std::string dup;
  EpsilonAuditLog::AppendJsonl(make(2), &dup);
  EpsilonAuditLog::AppendJsonl(make(2), &dup);
  JsonlReplayReport bad = EpsilonAuditLog::ReplayJsonl(dup);
  EXPECT_EQ(bad.errors.size(), 1u);
  EXPECT_EQ(bad.seq_gaps, 0u);

  JsonlReplayReport malformed = EpsilonAuditLog::ReplayJsonl("not json\n");
  EXPECT_EQ(malformed.events, 0u);
  EXPECT_EQ(malformed.errors.size(), 1u);
}

}  // namespace
}  // namespace blowfish
