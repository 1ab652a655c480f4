// snapshot_fsck — offline integrity check for a warm-restart snapshot
// directory (engine/snapshot_store.h). Read-only: never repairs,
// truncates, or deletes anything, so it is safe to point at a live or
// post-mortem store. The companion of ledger_fsck, with the same exit
// contract.
//
// Usage:
//   snapshot_fsck [--json] [--quiet] <snapshot-dir-or-file>
//
// Verifies every generation file (header magic/CRC, per-frame CRCs,
// section decode, footer) and reports what a restarting engine would
// do with each:
//
//   exit 0  clean — every generation loads; OpenLatest uses the newest
//   exit 1  corruption — some generation has a bad header, a bad
//           mid-file frame, or a decode failure; OpenLatest skips it
//           (fail-open) but the damage should be investigated
//   exit 2  usage / path unreadable
//   exit 3  torn tail only — the crash-mid-write signature: a valid
//           prefix followed by a truncated final frame and no footer;
//           OpenLatest falls back to the previous generation
//
// A directory or file with group or other permission bits is reported
// as a warning (the store creates both owner-only; older ones may not
// be); warnings never change the exit code.
//
// --json prints the full report as one JSON object for scripted smoke
// checks; --quiet suppresses the human summary, keeping the exit code.

#include <sys/stat.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/durable_file.h"
#include "engine/snapshot_store.h"
#include "engine/telemetry.h"

namespace {

using namespace blowfish;

[[noreturn]] void Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: snapshot_fsck [--json] [--quiet] "
               "<snapshot-dir-or-file>\n");
  std::exit(2);
}

struct FileVerdict {
  std::string path;
  snapshot::VerifyReport report;
  bool io_error = false;
  std::string io_message;
  std::string mode_warning;  ///< group/other permission bits (advisory)
  // A torn tail is damage confined to the unfinished end of the file:
  // some prefix verified, the footer never made it. Anything else —
  // bad header (no valid prefix at all) or damage *before* the end —
  // is corruption proper.
  bool TornTailOnly() const {
    return !report.errors.empty() && !report.footer_ok &&
           report.valid_prefix_bytes > 0;
  }
};

std::string ReportJson(const std::string& target,
                       const std::string& dir_warning,
                       const std::vector<FileVerdict>& files,
                       const char* verdict) {
  std::string out = "{\"target\":";
  AppendJsonString(target, &out);
  out += ",\"verdict\":\"";
  out += verdict;
  out += "\"";
  if (!dir_warning.empty()) {
    out += ",\"warning\":";
    AppendJsonString(dir_warning, &out);
  }
  out += ",\"files\":[";
  for (size_t i = 0; i < files.size(); ++i) {
    const FileVerdict& file = files[i];
    if (i > 0) out += ",";
    out += "{\"path\":";
    AppendJsonString(file.path, &out);
    if (file.io_error) {
      out += ",\"io_error\":";
      AppendJsonString(file.io_message, &out);
      out += "}";
      continue;
    }
    const snapshot::VerifyReport& r = file.report;
    out += ",\"generation\":" + std::to_string(r.generation);
    out += ",\"policies\":" + std::to_string(r.policies);
    out += ",\"transforms\":" + std::to_string(r.transforms);
    out += ",\"sections\":" + std::to_string(r.sections);
    out += ",\"footer_ok\":";
    out += r.footer_ok ? "true" : "false";
    out += ",\"valid_prefix_bytes\":" + std::to_string(r.valid_prefix_bytes);
    out += ",\"torn_tail\":";
    out += file.TornTailOnly() ? "true" : "false";
    if (!file.mode_warning.empty()) {
      out += ",\"warning\":";
      AppendJsonString(file.mode_warning, &out);
    }
    out += ",\"errors\":[";
    for (size_t j = 0; j < r.errors.size(); ++j) {
      if (j > 0) out += ",";
      AppendJsonString(r.errors[j], &out);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quiet = false;
  std::string target;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (!flag.empty() && flag[0] == '-') {
      Usage(("unknown flag " + flag).c_str());
    } else if (target.empty()) {
      target = flag;
    } else {
      Usage("exactly one snapshot directory or file expected");
    }
  }
  if (target.empty()) Usage("snapshot directory or file missing");

  // Accept either one snapshot file or a directory of generations.
  std::vector<std::string> paths;
  std::string dir_warning;
  struct stat st;
  if (::stat(target.c_str(), &st) != 0) {
    std::fprintf(stderr, "snapshot_fsck: cannot stat %s: %s\n", target.c_str(),
                 std::strerror(errno));
    return 2;
  }
  if (S_ISDIR(st.st_mode)) {
    dir_warning = OwnerOnlyWarning(target);
    Result<std::vector<std::string>> names = snapshot::ListFiles(target);
    if (!names.ok()) {
      std::fprintf(stderr, "snapshot_fsck: %s\n",
                   names.status().ToString().c_str());
      return 2;
    }
    for (const std::string& name : names.ValueOrDie()) {
      paths.push_back(target + "/" + name);
    }
  } else {
    paths.push_back(target);
  }

  std::vector<FileVerdict> files;
  bool any_corrupt = false;
  bool any_torn = false;
  for (const std::string& path : paths) {
    FileVerdict file;
    file.path = path;
    file.mode_warning = OwnerOnlyWarning(path);
    Status verified = snapshot::Verify(path, &file.report);
    if (!verified.ok()) {
      file.io_error = true;
      file.io_message = verified.ToString();
      any_corrupt = true;  // unreadable generation: treat as damage
    } else if (!file.report.errors.empty()) {
      if (file.TornTailOnly()) {
        any_torn = true;
      } else {
        any_corrupt = true;
      }
    }
    files.push_back(std::move(file));
  }

  const char* verdict = any_corrupt ? "corrupt"
                        : any_torn  ? "torn_tail"
                        : files.empty() ? "empty"
                                        : "clean";

  if (json) {
    const std::string body = ReportJson(target, dir_warning, files, verdict);
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else if (!quiet) {
    std::printf("snapshot %s: %s (%zu file%s)\n", target.c_str(), verdict,
                files.size(), files.size() == 1 ? "" : "s");
    if (!dir_warning.empty()) {
      std::printf("  warning: %s\n", dir_warning.c_str());
    }
    for (const FileVerdict& file : files) {
      if (file.io_error) {
        std::printf("  %s: UNREADABLE (%s)\n", file.path.c_str(),
                    file.io_message.c_str());
        continue;
      }
      const snapshot::VerifyReport& r = file.report;
      std::printf("  %s: gen=%" PRIu64 " policies=%zu transforms=%zu "
                  "sections=%zu footer=%s valid_prefix=%" PRIu64 "B\n",
                  file.path.c_str(), r.generation, r.policies, r.transforms,
                  r.sections, r.footer_ok ? "ok" : "MISSING",
                  r.valid_prefix_bytes);
      if (file.TornTailOnly()) {
        std::printf("    torn tail: %" PRIu64
                    " verified bytes precede the tear; OpenLatest falls "
                    "back to the previous generation\n",
                    r.valid_prefix_bytes);
      }
      if (!file.mode_warning.empty()) {
        std::printf("    warning: %s\n", file.mode_warning.c_str());
      }
      for (const std::string& error : r.errors) {
        std::printf("    ERROR: %s\n", error.c_str());
      }
    }
  }

  if (any_corrupt) return 1;
  if (any_torn) return 3;
  return 0;
}
