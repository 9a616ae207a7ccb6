#include "serve/budget_ledger.h"

#include <cmath>
#include <string>

namespace nodedp {

BudgetLedger::BudgetLedger(double total_epsilon)
    : accountant_(total_epsilon) {}

Status BudgetLedger::TryCharge(double epsilon, std::string label) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "charge epsilon must be finite and > 0, got " +
        std::to_string(epsilon));
  }
  // The accountant's own admission predicate, so the Spend below can never
  // CHECK-fail.
  if (!accountant_.CanSpend(epsilon)) {
    ++num_refusals_;
    return Status::ResourceExhausted(
        "privacy budget exhausted: '" + label + "' needs " +
        std::to_string(epsilon) + " but only " +
        std::to_string(accountant_.remaining()) + " of " +
        std::to_string(accountant_.total()) + " remains");
  }
  accountant_.Spend(epsilon, std::move(label));
  return Status::OK();
}

Status BudgetLedger::RestoreCharge(double epsilon, std::string label) {
  if (!accountant_.CanSpend(epsilon)) {
    return Status::Internal(
        "restored ledger is corrupt: charge '" + label + "' of " +
        std::to_string(epsilon) + " does not fit " +
        std::to_string(accountant_.remaining()) + " of " +
        std::to_string(accountant_.total()));
  }
  accountant_.Spend(epsilon, std::move(label));
  return Status::OK();
}

}  // namespace nodedp
