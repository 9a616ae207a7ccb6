// BudgetLedger: the refusing privacy accountant of the release server.
//
// dp/composition.h's PrivacyAccountant is a guard rail for pipeline code —
// over-spending is a programmer error and CHECK-fails. A server cannot
// crash because a client asked one query too many: the ledger fronts the
// accountant with an admission check and turns over-spending into a
// recoverable ResourceExhausted Status. Once a charge is admitted it is
// recorded through the underlying PrivacyAccountant, so the composition
// arithmetic (Lemma 2.4: total cost is Σ ε_i) lives in exactly one place.
//
// Semantics:
//   * Charges are admitted iff spent + ε <= total (up to the accountant's
//     numeric slack). A refused charge leaves the ledger untouched.
//   * Charges are made at query admission and never refunded — even if the
//     release later fails internally (LP resource exhaustion). This is the
//     conservative reading: budget accounting must not depend on
//     data-dependent execution paths.
//   * Not thread-safe by itself; the owning ReleaseServer entry serializes
//     access (see release_server.cc).

#ifndef NODEDP_SERVE_BUDGET_LEDGER_H_
#define NODEDP_SERVE_BUDGET_LEDGER_H_

#include <string>
#include <utility>
#include <vector>

#include "dp/composition.h"
#include "util/status.h"

namespace nodedp {

class BudgetLedger {
 public:
  // Requires total_epsilon > 0 (a server graph with no budget cannot be
  // queried, so constructing one is a configuration error).
  explicit BudgetLedger(double total_epsilon);

  // Admits and records a charge of `epsilon` for the named query, or
  // refuses with ResourceExhausted (leaving the ledger untouched) when the
  // charge would exceed the total. A non-finite or non-positive epsilon is
  // refused with InvalidArgument.
  Status TryCharge(double epsilon, std::string label);

  // Whether TryCharge(epsilon, ...) would be admitted right now. Lets the
  // durable-ledger path (serve/ledger_wal.h) order the admission decision
  // before the write-ahead record before the in-memory charge, all on the
  // accountant's one admission predicate.
  bool CanCharge(double epsilon) const { return accountant_.CanSpend(epsilon); }

  // Re-admits a charge from a durable record during WAL replay. Unlike
  // TryCharge, a failure is Internal (a restored ledger that does not fit
  // its own total is corrupt state, not a client refusal) and the refusal
  // counter is untouched.
  Status RestoreCharge(double epsilon, std::string label);

  // Restores the refusal counter from a durable record (telemetry only;
  // never affects admission).
  void SetRefusals(int num_refusals) { num_refusals_ = num_refusals; }

  double total() const { return accountant_.total(); }
  double spent() const { return accountant_.spent(); }
  double remaining() const { return accountant_.remaining(); }
  int num_charges() const {
    return static_cast<int>(accountant_.num_charges());
  }
  int num_refusals() const { return num_refusals_; }

  // The most recent admitted charges, in order: (label, epsilon). Bounded
  // (see PrivacyAccountant::ledger()); num_charges() counts them all.
  const std::vector<std::pair<std::string, double>>& charges() const {
    return accountant_.ledger();
  }

 private:
  PrivacyAccountant accountant_;
  int num_refusals_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_SERVE_BUDGET_LEDGER_H_
