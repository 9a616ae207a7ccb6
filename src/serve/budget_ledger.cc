#include "serve/budget_ledger.h"

#include <cmath>
#include <string>

namespace nodedp {

BudgetLedger::BudgetLedger(double total_epsilon)
    : accountant_(total_epsilon) {}

Status BudgetLedger::TryCharge(double epsilon, std::string_view label) {
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
        "privacy budget exhausted: '" + std::string(label) + "' needs " +
        std::to_string(epsilon) + " but only " +
        std::to_string(accountant_.remaining()) + " of " +
        std::to_string(accountant_.total()) + " remains");
  }
  accountant_.Spend(epsilon, label);
  return Status::OK();
}

Status BudgetLedger::Restore(double spent, long long num_charges,
                             long long num_refusals) {
  if (num_refusals < 0 || !accountant_.Restore(spent, num_charges)) {
    return Status::Internal(
        "restored ledger is corrupt: spent " + std::to_string(spent) +
        " over " + std::to_string(num_charges) + " charges does not fit " +
        std::to_string(accountant_.total()));
  }
  num_refusals_ = num_refusals;
  return Status::OK();
}

}  // namespace nodedp
