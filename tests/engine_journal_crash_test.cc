// Crash-replay property test: a child process floods journaled
// charges through a real engine and is SIGKILLed mid-flood; the
// parent then recovers the journal and checks the only invariant that
// matters after a crash:
//
//   acked spend  <=  recovered spend  <=  acked spend + in-flight
//
// Every charge the child acknowledged (Submit returned OK, one ack
// byte on the pipe) was write-ahead journaled before it committed, so
// recovery can never land BELOW the acked sum — that would refill
// budget. And since the child runs one submit at a time, at most one
// journaled charge can be missing its ack (killed between fsync and
// pipe write), which bounds recovery from above. The kill lands mid-
// append often enough that recovery also exercises the torn-tail
// repair on real SIGKILL file states, across two crash/recover
// rounds (round two re-opens the same journal and keeps spending).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "engine/ledger_journal.h"
#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

constexpr double kEpsilonPerCharge = 0.001;
constexpr int kAcksBeforeKill = 40;

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 13);
  return x;
}

// Child: open the journaled engine on `dir`, then submit charges
// forever, writing one ack byte per admitted charge. Runs until
// killed; never returns.
[[noreturn]] void FloodUntilKilled(const std::string& dir, int ack_fd) {
  EngineOptions options;
  options.seed = 99;
  options.journal_path = dir;
  options.journal_allow_torn_tail = true;  // round 2 reopens a kill site
  options.journal_segment_bytes = 1u << 14;  // rotate + checkpoint often
  auto opened = QueryEngine::Open(options);
  if (!opened.ok()) _exit(3);
  QueryEngine& engine = **opened;
  if (!engine.RegisterPolicy("flood", LinePolicy(16), Ramp(16), 1e6).ok()) {
    _exit(4);
  }
  if (!engine.OpenSession("alice", 1e6).ok()) _exit(5);

  QueryRequest request;
  request.session = "alice";
  request.policy = "flood";
  request.workload = IdentityWorkload(16);
  request.epsilon = kEpsilonPerCharge;
  for (uint64_t i = 0; i < 1000000; ++i) {  // backstop; the kill comes first
    Result<QueryResult> result = engine.Submit(request);
    if (!result.ok()) _exit(6);
    const char ack = 'a';
    if (::write(ack_fd, &ack, 1) != 1) _exit(7);
  }
  _exit(8);
}

// Runs one crash round: fork, flood, kill after `kAcksBeforeKill`
// acks, drain the pipe, and return the total acked charge count.
uint64_t CrashRound(const std::string& dir) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return 0;
  }
  if (pid == 0) {
    ::close(fds[0]);
    FloodUntilKilled(dir, fds[1]);  // never returns
  }
  ::close(fds[1]);

  uint64_t acked = 0;
  char buf[256];
  while (acked < kAcksBeforeKill) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;  // child died early; the exit code says why
    acked += static_cast<uint64_t>(n);
  }
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  EXPECT_TRUE(WIFSIGNALED(wstatus))
      << "child exited " << WEXITSTATUS(wstatus) << " instead of being killed";

  // Acks the child wrote before dying but after we stopped counting
  // are still admitted charges — drain to EOF so the lower bound is
  // the true ack total.
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    acked += static_cast<uint64_t>(n);
  }
  ::close(fds[0]);
  return acked;
}

// Replays the journal and returns session/alice's recovered spend
// (0.0 if the journal holds no spends for it yet).
double RecoverSpent(const std::string& dir) {
  JournalOptions options;
  options.dir = dir;
  options.allow_torn_tail = true;  // SIGKILL mid-append is expected
  auto journal = LedgerJournal::Open(options);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  if (!journal.ok()) return -1.0;
  RecoveredLedger led;
  if (!(*journal)->TakeRecovered("session/alice", &led)) return 0.0;
  return led.spent;
}

// The ε sum replay computes: the same partial-sum chain, so bounds
// compare exactly, not approximately.
double SumOfCharges(uint64_t count, double start) {
  double spent = start;
  for (uint64_t i = 0; i < count; ++i) spent += kEpsilonPerCharge;
  return spent;
}

TEST(JournalCrashTest, RecoveredSpendBracketsAckedSpendAcrossCrashes) {
  char tmpl[] = "/tmp/bfcrash.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  uint64_t acked_total = 0;
  for (int round = 0; round < 2; ++round) {
    acked_total += CrashRound(dir);
    const double recovered = RecoverSpent(dir);
    ASSERT_GE(recovered, 0.0) << "recovery failed in round " << round;

    // Never below what was admitted: a crash must not refill budget.
    // The replayed chain and SumOfCharges are the same float ops in
    // the same order, so >= is exact, no tolerance needed.
    EXPECT_GE(recovered, SumOfCharges(acked_total, 0.0))
        << "round " << round << ": recovery lost acked spends";
    // At most one single-threaded charge per round can be journaled
    // but un-acked (killed between fsync and the ack write).
    EXPECT_LE(recovered, SumOfCharges(acked_total + round + 1, 0.0))
        << "round " << round << ": recovery invented spends";
  }
  EXPECT_GE(acked_total, 2u * kAcksBeforeKill);

  // Cleanup.
  JournalScanReport report;
  if (LedgerJournal::Scan(dir, PosixFileIo(), &report).ok()) {
    for (const auto& segment : report.segments) {
      (void)PosixFileIo()->Remove(dir + "/" + segment.name);
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace blowfish
