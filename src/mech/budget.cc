#include "mech/budget.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"

namespace blowfish {

PrivacyBudget::PrivacyBudget(double total_epsilon) : total_(total_epsilon) {
  BF_CHECK_GT(total_epsilon, 0.0);
}

bool PrivacyBudget::CanSpend(double epsilon) const {
  if (epsilon <= 0.0) return false;
  // Tolerance for floating-point budget arithmetic: splits like ε/3
  // accumulate one ulp-scale rounding per committed spend, so the
  // slack is a few ulps of the running sum per spend. It must NOT
  // scale multiplicatively with the cap alone (a 1e9 cap with a
  // relative 1e-9 slack would admit ~1 full unit of ε past the
  // bound); ulp-proportional slack stays negligible at every scale.
  const double scale = std::max(total_, spent_ + epsilon);
  const double slack = 4.0 * static_cast<double>(spends_ + 1) *
                       std::numeric_limits<double>::epsilon() * scale;
  return spent_ + epsilon <= total_ + slack;
}

Status PrivacyBudget::Spend(double epsilon) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("spend must be positive");
  }
  if (!CanSpend(epsilon)) {
    return Status::InvalidArgument(
        "budget exceeded: spent " + std::to_string(spent_) + " + " +
        std::to_string(epsilon) + " > " + std::to_string(total_));
  }
  spent_ += epsilon;
  ++spends_;
  return Status::OK();
}

Status PrivacyBudget::RestoreSpent(double spent_epsilon) {
  if (spent_epsilon < 0.0) {
    return Status::InvalidArgument("recovered spend must be >= 0");
  }
  if (spends_ != 0 || spent_ != 0.0) {
    return Status::InvalidArgument(
        "RestoreSpent needs a fresh ledger; this one already recorded " +
        std::to_string(spends_) + " spend(s)");
  }
  if (spent_epsilon == 0.0) return Status::OK();
  // Assignment, not accumulation: the journal replay already performed
  // the ordered `spent += ε` chain, so copying its result preserves
  // bit-exactness with the pre-crash ledger.
  spent_ = spent_epsilon;
  spends_ = 1;
  return Status::OK();
}

}  // namespace blowfish
