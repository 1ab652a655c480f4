// Seeded inputs of the serving benchmark: the policies each workload
// registers, the request templates its clients send, and the exact
// answers the output checks compare against. Everything here is built
// from the workload seed before any timing starts; the engine sees
// only the generated inputs.

#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "engine/query_engine.h"
#include "rng/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// ε of every request. A power of two, and every budget below is one
/// too, so each ledger balance is an exact binary fraction and the
/// conservation checks can compare spend with ==.
inline constexpr double kEpsilon = 1.0 / 128;
inline constexpr double kSessionBudget = 1 << 20;
/// Policy caps are multiples of kCapStep; spend per policy version
/// stays far below one step, so floor(remaining / kCapStep) names the
/// version a result was charged to (see CapForGeneration).
inline constexpr double kCapStep = 1 << 20;
inline double CapForGeneration(int generation) {
  return kCapStep * (generation + 1);
}

/// \brief One policy a workload registers.
struct PolicySpec {
  std::string name;
  /// Planner family: line_tree, theta_line, grid_matrix, grid_slab or
  /// unbounded (per-family planner timings use these labels).
  std::string family;
  blowfish::Policy policy;
  blowfish::Vector data;
};

/// \brief One request shape: a workload against one policy, with the
/// exact answers on the policy's base data.
struct Template {
  size_t policy = 0;
  blowfish::QueryRequest request;  ///< policy name + workload + ε set
  blowfish::Vector truth;
  /// Domain cells each answer sums: a policy whose data is shifted by
  /// g in every cell has truth + g * cells.
  blowfish::Vector cells;
};

struct Fixture {
  std::vector<PolicySpec> policies;
  std::vector<Template> templates;
  /// Request weight of each template (cold-churn is skewed; the
  /// closed-loop workloads are uniform).
  std::vector<double> weights;
  std::vector<std::string> sessions;
};

/// True for the four workload names the benchmark knows.
bool KnownWorkload(const std::string& workload);

/// Builds the workload's policies, templates and session pool from
/// `seed`. Same seed, same fixture.
Fixture MakeFixture(const std::string& workload, uint64_t seed);

/// Data of `spec` at replacement generation `generation` (cold-churn
/// shifts every cell by the generation, so answers identify it).
blowfish::Vector DataAt(const PolicySpec& spec, int generation);

/// Draws an index with probability proportional to `weights`.
size_t DrawWeighted(const std::vector<double>& cumulative, blowfish::Rng* rng);

/// Running sum of `weights`, for DrawWeighted.
std::vector<double> Cumulative(const std::vector<double>& weights);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
