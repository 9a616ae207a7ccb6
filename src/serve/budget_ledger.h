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
//   * The state is four numbers: total, spent, charge count and refusal
//     count. A charge's label only names the query in a refusal message,
//     so memory does not grow with the number of queries admitted.
//   * Not thread-safe by itself; the owning ReleaseServer entry serializes
//     access (see release_server.cc).

#ifndef NODEDP_SERVE_BUDGET_LEDGER_H_
#define NODEDP_SERVE_BUDGET_LEDGER_H_

#include <string_view>

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
  Status TryCharge(double epsilon, std::string_view label);

  // Whether TryCharge(epsilon, ...) would be admitted right now. Lets the
  // durable-ledger path (serve/ledger_wal.h) order the admission decision
  // before the write-ahead record before the in-memory charge, all on the
  // accountant's one admission predicate.
  bool CanCharge(double epsilon) const { return accountant_.CanSpend(epsilon); }

  // Sets the ledger to a durable record's state during WAL replay: the
  // stored `spent` itself (not a re-summation), so it is bit-identical to
  // the pre-crash sum. A `spent` that is non-finite, negative or over the
  // total, or a negative count, is corrupt state and fails with Internal,
  // leaving the ledger untouched.
  Status Restore(double spent, long long num_charges, long long num_refusals);

  double total() const { return accountant_.total(); }
  double spent() const { return accountant_.spent(); }
  double remaining() const { return accountant_.remaining(); }
  long long num_charges() const { return accountant_.num_charges(); }
  long long num_refusals() const { return num_refusals_; }

 private:
  PrivacyAccountant accountant_;
  long long num_refusals_ = 0;
};

}  // namespace nodedp

#endif  // NODEDP_SERVE_BUDGET_LEDGER_H_
