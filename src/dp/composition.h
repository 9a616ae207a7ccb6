// Sequential-composition budget accounting (Lemma 2.4): an algorithm that
// runs subroutines with budgets ε_1..ε_t is (Σ ε_i)-node-private.
//
// The accountant is a guard rail for pipeline code: each mechanism call
// spends from a fixed total and over-spending CHECK-fails, making budget
// arithmetic mistakes loud instead of silently non-private. Composition is
// sequential, so its whole state is the total, the running sum and the
// number of charges; a charge's label only names the culprit of a failed
// CHECK.

#ifndef NODEDP_DP_COMPOSITION_H_
#define NODEDP_DP_COMPOSITION_H_

#include <string_view>

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
    return epsilon > 0.0 && Fits(spent_ + epsilon);
  }

  // Reserves `epsilon` of budget for the named mechanism. CHECK-fails if the
  // total would be exceeded.
  double Spend(double epsilon, std::string_view label) {
    NODEDP_CHECK_GT(epsilon, 0.0);
    NODEDP_CHECK_MSG(CanSpend(epsilon),
                     "privacy budget exceeded by '" << label << "': spent "
                                                    << spent_ << " + "
                                                    << epsilon << " > "
                                                    << total_);
    spent_ += epsilon;
    ++num_charges_;
    return epsilon;
  }

  // Sets the running sum and the charge count to values restored from
  // durable storage (serve/ledger_wal.h), so `spent` is the bit-exact
  // pre-crash sum. Returns false and changes nothing unless `spent` is
  // finite, non-negative and fits the total under CanSpend's slack.
  bool Restore(double spent, long long num_charges) {
    if (!(spent >= 0.0) || !Fits(spent) || num_charges < 0) return false;
    spent_ = spent;
    num_charges_ = num_charges;
    return true;
  }

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }
  long long num_charges() const { return num_charges_; }

 private:
  bool Fits(double spent) const { return spent <= total_ * (1.0 + 1e-12); }

  double total_;
  double spent_;
  long long num_charges_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_DP_COMPOSITION_H_
