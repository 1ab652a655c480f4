// Heap-allocation budget of cold plans. A cold submit (the first after
// registration or ReplacePolicy) copies the registered policy into a
// PlanRequest and plans it: reduction, P_G, spanner certification and
// the mechanism's own tables. Allocating per vertex or per edge there
// shows up as tens of thousands of operator-new calls per plan; the
// flat policy graph and the coordinate walks that reuse their buffers
// keep it to a few hundred. The count is fixed for a given policy, so
// it gates where timings cannot. Bounds are the measured counts plus a
// small margin (1,036, 31, 45, 369 and 314 when they were set).

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/policy.h"

#include "alloc_counter.h"

namespace blowfish {
namespace {

/// Operator-new calls of one cold plan of `policy`, counting the copy
/// of the policy into the request as the engine makes it.
uint64_t AllocationsPerColdPlan(const Policy& policy, const char* kind) {
  const uint64_t before = g_allocations.load();
  Result<Plan> plan = PlanMechanism(PlanRequest{policy, false, {}});
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (plan.ok()) {
    EXPECT_EQ(plan.ValueOrDie().kind, kind);
  }
  return allocations;
}

TEST(PlanAlloc, SlabPlanOn64x64ThetaFour) {
  const Policy policy = GridPolicy(DomainShape({64, 64}), 4);
  EXPECT_LE(AllocationsPerColdPlan(policy, "grid-theta-range"), 1150u);
}

TEST(PlanAlloc, LineTreePlanAtK4096) {
  EXPECT_LE(AllocationsPerColdPlan(LinePolicy(4096), "tree-transform"), 35u);
}

// The other plans of the serving benchmark's cold submits.
TEST(PlanAlloc, OtherServingPlans) {
  EXPECT_LE(AllocationsPerColdPlan(Theta1DPolicy(4096, 4), "spanner-tree"),
            50u);
  EXPECT_LE(AllocationsPerColdPlan(GridPolicy(DomainShape({32, 32}), 1),
                                   "grid-matrix"),
            400u);
  EXPECT_LE(AllocationsPerColdPlan(GridPolicy(DomainShape({16, 16}), 4),
                                   "grid-theta-range"),
            350u);
}

}  // namespace
}  // namespace blowfish
