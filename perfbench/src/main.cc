// perfbench_serving: one run of one serving workload.
//
//   perfbench_serving --workload NAME --seed N --seconds S --trace 0|1
//                     --dir SCRATCH_DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// table. Either way the last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// preceded by a line with the detail values (sample counts, whole-run
// figures), the work counts run.py compares across runs, and the
// failed checks. Exit status is 0 only when every output
// check passed.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void PrintString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintNumber(double v) {
  if (!std::isfinite(v)) v = 0;  // JSON has no NaN; the checks flag it
  std::printf("%.10g", v);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_serving: %s\nusage: perfbench_serving --workload "
               "admit-small|journal-small|release-heavy|cold-churn --seed N "
               "--seconds S --trace 0|1 --dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--dir") {
      args.dir = value;
      have_dir = true;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload || !perfbench::KnownWorkload(args.workload)) {
    Usage("missing or unknown --workload");
  }
  if (!have_dir) Usage("missing --dir");
  if (!(args.seconds > 0 && args.seconds <= 600)) Usage("bad --seconds");

  const perfbench::Outcome out =
      args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);

  std::printf("{\"detail\": {");
  bool first = true;
  for (const auto& [name, value] : out.detail) {
    std::printf(first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintNumber(value);
  }
  std::printf("}, \"same_work\": {\"exact\": {");
  first = true;
  for (const auto& [name, value] : out.exact) {
    std::printf(first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": %" PRIu64, value);
  }
  std::printf("}, \"approx\": {");
  first = true;
  for (const auto& [name, value] : out.approx) {
    std::printf(first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintNumber(value);
  }
  std::printf("}}, \"failed_checks\": {");
  first = true;
  for (const auto& [name, why] : out.check_failures) {
    std::printf(first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintString(why);
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.correct() ? "true" : "false", out.attempted, out.failed);
  first = true;
  for (const perfbench::Metric& m : out.metrics) {
    std::printf(first ? "" : ", ");
    first = false;
    PrintString(m.name);
    std::printf(": {\"value\": ");
    PrintNumber(m.value);
    std::printf(", \"unit\": ");
    PrintString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
