// ledger_fsck — offline integrity check for a crash-safe ε-ledger
// journal directory (engine/ledger_journal.h). Read-only: never
// repairs, truncates, or creates anything, so it is safe to point at
// a live or post-mortem journal.
//
// Usage:
//   ledger_fsck [--json] [--quiet] <journal-dir>
//
// Walks every segment, verifies headers, frame CRCs, and the dense
// seq chain, replays spends into per-ledger balances (all ε
// arithmetic happens inside LedgerJournal::Scan — this tool only
// formats the report), and diagnoses exactly what recovery would do:
//
//   exit 0  clean — Open() would recover as-is
//   exit 1  corruption — seq gap/duplicate, mid-file CRC damage,
//           bad header; Open() refuses regardless of options
//   exit 2  usage / directory unreadable
//   exit 3  torn tail only — the crash-mid-append signature; Open()
//           recovers with journal_allow_torn_tail, refuses without
//
// A directory or segment with group or other permission bits is
// reported as a warning (the journal creates both owner-only; older
// ones may not be); warnings never change the exit code.
//
// --json prints the full report as one JSON object (balances with
// %.17g doubles) for scripted smoke checks; --quiet suppresses the
// human summary and keeps only the exit code.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "engine/durable_file.h"
#include "engine/ledger_journal.h"
#include "engine/telemetry.h"

namespace {

using namespace blowfish;

[[noreturn]] void Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr, "usage: ledger_fsck [--json] [--quiet] <journal-dir>\n");
  std::exit(2);
}

std::string ReportJson(const std::string& dir, const JournalScanReport& report,
                       const char* verdict) {
  std::string out = "{\"dir\":";
  AppendJsonString(dir, &out);
  out += ",\"verdict\":\"";
  out += verdict;
  out += "\",\"records\":" + std::to_string(report.records);
  out += ",\"spends\":" + std::to_string(report.spends);
  out += ",\"refusals\":" + std::to_string(report.refusals);
  out += ",\"checkpoints\":" + std::to_string(report.checkpoints);
  out += ",\"first_seq\":" + std::to_string(report.first_seq);
  out += ",\"last_seq\":" + std::to_string(report.last_seq);
  out += ",\"torn_tail\":";
  out += report.torn_tail ? "true" : "false";
  if (report.torn_tail) {
    out += ",\"torn_segment\":";
    AppendJsonString(report.torn_segment, &out);
    out += ",\"torn_good_bytes\":" + std::to_string(report.torn_good_bytes);
  }
  out += ",\"segments\":[";
  for (size_t i = 0; i < report.segments.size(); ++i) {
    const auto& segment = report.segments[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(segment.name, &out);
    out += ",\"start_seq\":" + std::to_string(segment.start_seq);
    out += ",\"records\":" + std::to_string(segment.records);
    out += ",\"good_bytes\":" + std::to_string(segment.good_bytes);
    out += ",\"file_bytes\":" + std::to_string(segment.file_bytes);
    out += "}";
  }
  out += "],\"ledgers\":{";
  bool first = true;
  for (const auto& [id, ledger] : report.ledgers) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(id, &out);
    out += ":{\"spent\":";
    AppendDouble(ledger.spent, &out);
    if (ledger.has_total) {
      out += ",\"total\":";
      AppendDouble(ledger.total, &out);
      out += ",\"remaining\":";
      AppendDouble(ledger.total - ledger.spent, &out);
    }
    out += ",\"records\":" + std::to_string(ledger.records);
    out += "}";
  }
  out += "},\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(report.errors[i], &out);
  }
  out += "],\"warnings\":[";
  for (size_t i = 0; i < report.warnings.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(report.warnings[i], &out);
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quiet = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (!flag.empty() && flag[0] == '-') {
      Usage(("unknown flag " + flag).c_str());
    } else if (dir.empty()) {
      dir = flag;
    } else {
      Usage("exactly one journal directory expected");
    }
  }
  if (dir.empty()) Usage("journal directory missing");

  JournalScanReport report;
  Status scanned = LedgerJournal::Scan(dir, PosixFileIo(), &report);
  if (!scanned.ok()) {
    std::fprintf(stderr, "ledger_fsck: %s\n", scanned.ToString().c_str());
    return 2;
  }
  // Data at rest: a directory created before the 0700 mode keeps 0755,
  // segments written before the 0600 mode keep 0644. Advisory, like the
  // balance cross-checks: the exit code holds.
  std::vector<std::string> paths = {dir};
  for (const auto& segment : report.segments) {
    paths.push_back(dir + "/" + segment.name);
  }
  for (const std::string& path : paths) {
    std::string warning = OwnerOnlyWarning(path);
    if (!warning.empty()) report.warnings.push_back(std::move(warning));
  }

  const bool corrupt = !report.errors.empty();
  const char* verdict = corrupt       ? "corrupt"
                        : report.torn_tail ? "torn_tail"
                                           : "clean";

  if (json) {
    const std::string body = ReportJson(dir, report, verdict);
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else if (!quiet) {
    std::printf("journal %s: %s\n", dir.c_str(), verdict);
    std::printf("  segments=%zu records=%" PRIu64 " (spends=%" PRIu64
                " refusals=%" PRIu64 " checkpoints=%" PRIu64 ") seq=[%" PRIu64
                ", %" PRIu64 "]\n",
                report.segments.size(), report.records, report.spends,
                report.refusals, report.checkpoints, report.first_seq,
                report.last_seq);
    for (const auto& segment : report.segments) {
      std::printf("  segment %s: start_seq=%" PRIu64 " records=%" PRIu64
                  " good=%" PRIu64 "B file=%" PRIu64 "B\n",
                  segment.name.c_str(), segment.start_seq, segment.records,
                  segment.good_bytes, segment.file_bytes);
    }
    for (const auto& [id, ledger] : report.ledgers) {
      if (ledger.has_total) {
        std::printf("  ledger %s: spent=%.17g total=%.17g remaining=%.17g "
                    "(%" PRIu64 " records)\n",
                    id.c_str(), ledger.spent, ledger.total,
                    ledger.total - ledger.spent, ledger.records);
      } else {
        std::printf("  ledger %s: spent=%.17g (cap unknown, %" PRIu64
                    " records)\n",
                    id.c_str(), ledger.spent, ledger.records);
      }
    }
    if (report.torn_tail) {
      std::printf("  torn tail in %s: %" PRIu64
                  " verified bytes precede the tear; recovery with "
                  "journal_allow_torn_tail truncates the rest\n",
                  report.torn_segment.c_str(), report.torn_good_bytes);
    }
    for (const auto& warning : report.warnings) {
      std::printf("  warning: %s\n", warning.c_str());
    }
    for (const auto& error : report.errors) {
      std::printf("  ERROR: %s\n", error.c_str());
    }
  }

  if (corrupt) return 1;
  if (report.torn_tail) return 3;
  return 0;
}
