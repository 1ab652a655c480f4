// Shared pieces of the serving benchmark: workload configuration, the
// engine deployment every run sets up, request tallies, and the result
// record main.cc prints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/async_engine.h"
#include "engine/query_engine.h"
#include "fixtures.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for journals (created by the caller, on the
  /// disk the benchmark runs from).
  std::string dir;
};

/// \brief How a workload drives the engine.
struct WorkloadConfig {
  /// Request threads (closed loop), or 1 generator thread (open loop).
  int clients = 1;
  /// Requests per second used to size a run: every run sends exactly
  /// round(rate * seconds) timed requests, so a faster engine finishes
  /// sooner instead of doing more work. For the open loop this is the
  /// send rate.
  double rate = 1000;
  bool journal = false;
  bool async = false;
  double stream_share = 0.0;  ///< requests sent through SubmitStream
  int setup_reps = 3;         ///< set-ups per run (median reported)
  size_t rmse_every = 1;      ///< every n-th answer vector feeds the RMSE
  size_t reference_draws = 4000;  ///< direct mechanism runs for the RMSE
  int cold_probes = 0;        ///< ReplacePolicy + cold Submit probes
  int stream_probes = 0;      ///< SubmitStream time-to-first-chunk probes
};

WorkloadConfig ConfigFor(const std::string& workload);

/// \brief One measured line of output.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Everything a run reports: the contract fields, the metrics,
/// failed output checks, and detail values (sample counts, work
/// counts) printed on a separate line.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> check_failures;
  std::vector<std::pair<std::string, double>> detail;
  /// Work counts two runs of the same workload, seed and length must
  /// repeat exactly, and per-request rates they must repeat within 5%.
  std::vector<std::pair<std::string, uint64_t>> exact;
  std::vector<std::pair<std::string, double>> approx;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Detail(std::string name, double value) {
    detail.emplace_back(std::move(name), value);
  }
  void Exact(std::string name, uint64_t value) {
    exact.emplace_back(std::move(name), value);
  }
  void Approx(std::string name, double value) {
    approx.emplace_back(std::move(name), value);
  }
  void Check(bool ok, const std::string& name, const std::string& why) {
    if (!ok) check_failures.emplace_back(name, why);
  }
  bool correct() const { return check_failures.empty(); }
};

/// \brief A running engine plus the handles clients submit with.
struct Deployment {
  std::unique_ptr<blowfish::AsyncQueryEngine> async;
  std::unique_ptr<blowfish::QueryEngine> sync;
  blowfish::QueryEngine* engine = nullptr;
  std::vector<blowfish::PolicyHandle> policies;
  std::vector<blowfish::LedgerHandle> sessions;
};

/// Byte budgets for the plan and transform caches (0 = unbounded).
struct CacheBudgets {
  size_t plan_bytes = 0;
  size_t transform_bytes = 0;
};

/// Cold-churn's cache budgets: half the modeled footprint of its plans
/// and transforms, so the working set cannot stay resident.
CacheBudgets ChurnBudgets(const Fixture& f);

blowfish::EngineOptions OptionsFor(const WorkloadConfig& config,
                                   const std::string& journal_dir,
                                   const CacheBudgets& budgets);

/// Constructs the engine, registers every policy (planning it and
/// precomputing its transform) and opens every session. Aborts the
/// process with a message if any step fails: a benchmark whose set-up
/// fails has nothing to measure.
Deployment Deploy(const Fixture& f, const WorkloadConfig& config,
                  const blowfish::EngineOptions& options);

/// Sets up once, in a fresh journal directory `dir`/journal-`rep`,
/// and returns the time in seconds. With `out`, the deployment is kept
/// there and its journal directory named in `journal_dir`; without, it
/// is torn down and the directory removed.
double TimedSetup(const Fixture& f, const WorkloadConfig& config,
                  const std::string& dir, const CacheBudgets& budgets, int rep,
                  Deployment* out, std::string* journal_dir);

/// \brief One request of a closed-loop run, drawn from the seed.
struct Op {
  uint32_t tmpl = 0;
  uint32_t session = 0;
  bool by_string = false;
  bool stream = false;
};

std::vector<Op> MakeOps(const Fixture& f, const WorkloadConfig& config,
                        size_t count, blowfish::Rng* rng);

/// Points `request` at the op's session and policy, by handle or by
/// string id.
void Address(const Op& op, const Fixture& f, const Deployment& d,
             blowfish::QueryRequest* request);

/// \brief An untraced closed-loop phase, as the traced run uses it.
struct PhaseResult {
  std::vector<uint32_t> latency_ns;  ///< per-request client latency
  std::vector<uint32_t> templates;   ///< template of each request
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t allocs = 0;      ///< operator new calls during the phase
  int64_t heap_bytes = 0;   ///< growth of malloc bytes in use
};

/// Runs `ops` through the deployed engine with config.clients threads
/// (after a short untimed warm-up when `warm_up`).
PhaseResult RunPhase(const Fixture& f, const Deployment& d,
                     const WorkloadConfig& config, const std::vector<Op>& ops,
                     bool warm_up);

Outcome RunEndToEnd(const Args& args);
Outcome RunTraced(const Args& args);
/// The cold-churn end-to-end run with its per-layer counters (cache
/// hit ratios, async queue figures, generator lag) appended to
/// `layers`.
Outcome RunColdChurnTraced(const Args& args, std::vector<Metric>* layers);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
