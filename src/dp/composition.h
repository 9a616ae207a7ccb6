// Sequential-composition budget accounting (Lemma 2.4): an algorithm that
// runs subroutines with budgets ε_1..ε_t is (Σ ε_i)-node-private.
//
// The accountant is a guard rail for pipeline code: each mechanism call
// spends from a fixed total and over-spending CHECK-fails, making budget
// arithmetic mistakes loud instead of silently non-private.

#ifndef NODEDP_DP_COMPOSITION_H_
#define NODEDP_DP_COMPOSITION_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nodedp {

class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(double total_epsilon)
      : total_(total_epsilon), spent_(0.0) {
    NODEDP_CHECK_GT(total_epsilon, 0.0);
  }

  // Whether a charge of `epsilon` fits the remaining budget (up to a tiny
  // numeric slack). The single admission predicate: Spend CHECKs it, and
  // refusal-style callers (serve/BudgetLedger) test it first — keeping both
  // on the same arithmetic so an admitted charge can never fail the Spend.
  bool CanSpend(double epsilon) const {
    return epsilon > 0.0 && spent_ + epsilon <= total_ * (1.0 + 1e-12);
  }

  // Reserves `epsilon` of budget for the named mechanism. CHECK-fails if the
  // total would be exceeded.
  double Spend(double epsilon, std::string label) {
    NODEDP_CHECK_GT(epsilon, 0.0);
    NODEDP_CHECK_MSG(CanSpend(epsilon),
                     "privacy budget exceeded by '" << label << "': spent "
                                                    << spent_ << " + "
                                                    << epsilon << " > "
                                                    << total_);
    spent_ += epsilon;
    ++num_charges_;
    if (ledger_.size() == 2 * kRecentCharges) {
      ledger_.erase(ledger_.begin(), ledger_.begin() + kRecentCharges);
    }
    ledger_.emplace_back(std::move(label), epsilon);
    return epsilon;
  }

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }
  // Every charge ever spent, including those dropped from ledger().
  long long num_charges() const { return num_charges_; }
  // The recent charges, oldest first: all of them until there are
  // 2 * kRecentCharges, then never fewer than the last kRecentCharges. A
  // serving ledger (serve/budget_ledger.h) lives as long as its graph and
  // admits one charge per query, so keeping every label would grow memory
  // by ~70 bytes per query without bound; the durable per-charge record
  // is the write-ahead log (serve/ledger_wal.h).
  const std::vector<std::pair<std::string, double>>& ledger() const {
    return ledger_;
  }

  static constexpr std::size_t kRecentCharges = 64;

 private:
  double total_;
  double spent_;
  long long num_charges_ = 0;
  std::vector<std::pair<std::string, double>> ledger_;
};

}  // namespace nodedp

#endif  // NODEDP_DP_COMPOSITION_H_
