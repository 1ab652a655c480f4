// Explicit privacy-budget accounting. The paper's strategies lean on
// two composition rules:
//
//   sequential: releases on the same data add their ε's;
//   parallel:   releases on disjoint sub-domains share one ε
//               (one neighbor step touches one part).
//
// Both rules need only a ledger's running sum: a parallel charge over
// n disjoint releases is one spend of max ε. PrivacyBudget therefore
// holds a total, the amount spent and the number of spends that made
// it up — constant state however long the ledger serves. It keeps no
// history. The serving engine records each charge elsewhere: the
// bounded ε-audit ring holds the recent events, and the write-ahead
// journal holds every one (engine/budget_accountant.h).

#ifndef BLOWFISH_MECH_BUDGET_H_
#define BLOWFISH_MECH_BUDGET_H_

#include <cstdint>

#include "common/status.h"

namespace blowfish {

/// \brief A sequential-composition ledger for one privacy budget.
class PrivacyBudget {
 public:
  explicit PrivacyBudget(double total_epsilon);

  /// True if a sequential spend of `epsilon` would be accepted. The
  /// single authority on the slack arithmetic; Spend() commits exactly
  /// when this holds. Callers coordinating several ledgers (the
  /// engine's BudgetAccountant) probe with this before committing.
  bool CanSpend(double epsilon) const;

  /// Records a sequential spend; fails without side effects if
  /// `epsilon` is not positive or would exceed the total. A parallel
  /// charge over disjoint releases is one Spend of their max ε.
  Status Spend(double epsilon);

  /// Journal-replay restore: sets the spent total to exactly
  /// `spent_epsilon` (bit-for-bit the value the write-ahead journal
  /// replayed to); a nonzero balance counts as one spend. Unlike Spend
  /// this may leave the ledger exhausted past its cap — a journal that
  /// outlived a cap reduction must still pin every recorded spend, so
  /// recovery never refills a budget. Only meaningful on a fresh
  /// ledger (no prior spends); fails with kInvalidArgument otherwise
  /// or when `spent_epsilon` is negative.
  Status RestoreSpent(double spent_epsilon);

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }
  /// Spends committed so far; scales CanSpend's rounding slack.
  uint64_t spends() const { return spends_; }

 private:
  double total_;
  double spent_ = 0.0;
  uint64_t spends_ = 0;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_BUDGET_H_
