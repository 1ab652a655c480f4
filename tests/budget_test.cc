#include <gtest/gtest.h>

#include <cmath>

#include "mech/budget.h"

namespace blowfish {
namespace {

TEST(Budget, SequentialSpendsAccumulate) {
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.Spend(0.25).ok());
  EXPECT_TRUE(budget.Spend(0.75).ok());
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  EXPECT_EQ(budget.spends(), 2u);
}

TEST(Budget, OverspendRejectedWithoutSideEffects) {
  PrivacyBudget budget(0.5);
  EXPECT_TRUE(budget.Spend(0.4).ok());
  const Status overspend = budget.Spend(0.2);
  EXPECT_FALSE(overspend.ok());
  EXPECT_NEAR(budget.spent(), 0.4, 1e-12);
  EXPECT_EQ(budget.spends(), 1u);
}

TEST(Budget, ThirdSplitsToleratesRounding) {
  // The Lemma 4.5 pattern: three ε/3 spends must exactly fill ε.
  PrivacyBudget budget(1.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(budget.Spend(1.0 / 3.0).ok()) << i;
  }
  EXPECT_FALSE(budget.Spend(0.01).ok());
}

TEST(Budget, ParallelCountsOnce) {
  // The Theorem 5.4 pattern: 2(k-1) = 126 disjoint lines at full ε
  // cost ε, committed as one spend of the max.
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.Spend(1.0).ok());
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  EXPECT_EQ(budget.spends(), 1u);
}

TEST(Budget, LargeTotalsDoNotScaleTheSlack) {
  // Regression: the old bound total*(1+1e-9)+1e-9 admitted ~1 full
  // unit of ε past a 1e9 cap. The tolerance must stay at rounding
  // scale no matter how large the cap is.
  PrivacyBudget budget(1e9);
  EXPECT_TRUE(budget.Spend(1e9).ok());
  EXPECT_FALSE(budget.CanSpend(0.9));
  EXPECT_FALSE(budget.Spend(0.9).ok());
  EXPECT_FALSE(budget.CanSpend(1e-3));
  EXPECT_EQ(budget.spends(), 1u);

  // Exact splits still fill a large cap despite rounding.
  PrivacyBudget split(1e9);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(split.Spend(1e9 / 3.0).ok()) << i;
  }
  EXPECT_FALSE(split.CanSpend(1.0));
}

TEST(Budget, InvalidSpendsRejected) {
  PrivacyBudget budget(1.0);
  EXPECT_FALSE(budget.Spend(0.0).ok());
  EXPECT_FALSE(budget.Spend(-0.1).ok());
  EXPECT_FALSE(budget.Spend(std::nan("")).ok());
  EXPECT_EQ(budget.spends(), 0u);
  EXPECT_EQ(budget.spent(), 0.0);
}

TEST(Budget, RestoreSpentCountsAsOneSpend) {
  // A recovered balance is one spend for CanSpend's slack, and may
  // leave the ledger past its cap (recovery never refills a budget).
  PrivacyBudget restored(1.0);
  ASSERT_TRUE(restored.RestoreSpent(1.5).ok());
  EXPECT_EQ(restored.spent(), 1.5);
  EXPECT_EQ(restored.spends(), 1u);
  EXPECT_FALSE(restored.CanSpend(0.1));
  EXPECT_FALSE(restored.RestoreSpent(0.5).ok());

  PrivacyBudget untouched(1.0);
  ASSERT_TRUE(untouched.RestoreSpent(0.0).ok());
  EXPECT_EQ(untouched.spends(), 0u);
  ASSERT_TRUE(untouched.Spend(0.5).ok());
  EXPECT_FALSE(untouched.RestoreSpent(0.5).ok());
}

TEST(BudgetDeath, NonPositiveTotalRejected) {
  EXPECT_DEATH(PrivacyBudget(0.0), "CHECK failed");
}

TEST(Budget, DawaStyleSplitAudits) {
  // DAWA: ε1 = 0.25ε partition + ε2 = 0.75ε totals.
  PrivacyBudget budget(0.1);
  EXPECT_TRUE(budget.Spend(0.025).ok());
  EXPECT_EQ(budget.spent(), 0.025);
  EXPECT_TRUE(budget.Spend(0.075).ok());
  EXPECT_EQ(budget.spent(), 0.025 + 0.075);
  EXPECT_EQ(budget.spends(), 2u);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
}

}  // namespace
}  // namespace blowfish
