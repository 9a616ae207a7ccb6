// EvalLipschitzExtension (Algorithm 2): computes f_Δ(G), the value of the
// paper's Lipschitz extension of the spanning-forest size.
//
// On top of the raw cutting-plane LP (core/forest_polytope.h) this evaluator
// adds two exact optimizations:
//
//  * Component decomposition. P_Δ(G) is a product polytope across connected
//    components (no constraint couples edges of different components), so
//    f_Δ is additive: each component is evaluated independently.
//
//  * Repair certificate. If Algorithm 3 builds a spanning Δ-forest of a
//    component, its indicator vector is feasible and meets the
//    underestimation bound, so f_Δ(component) = f_sf(component) exactly
//    (Lemma 3.3, Item 1) and the LP is skipped. Since the repair procedure
//    is guaranteed to succeed when s(G) < Δ (Lemma 1.8), the LP only ever
//    runs for Δ <= s(G) — the small-Δ tail of the GEM grid.

#ifndef NODEDP_CORE_LIPSCHITZ_EXTENSION_H_
#define NODEDP_CORE_LIPSCHITZ_EXTENSION_H_

#include "core/forest_polytope.h"
#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

struct ExtensionOptions {
  // Try the Algorithm 3 certificate before the LP. Always sound.
  bool use_repair_fast_path = true;
  ForestPolytopeOptions polytope;
};

struct ExtensionValue {
  double value = 0.0;        // f_Δ(G)
  int components_fast = 0;   // components certified by repair
  int components_lp = 0;     // components that required the LP
  int cut_rounds = 0;        // total cutting-plane rounds
  int cuts_added = 0;
  long long simplex_iterations = 0;
  int cold_restarts = 0;     // warm LP re-solves redone from scratch
};

// Computes f_Δ(G). Requires delta >= 1 (the Algorithm 1 grid is [1, n]).
// Fails with ResourceExhausted if the LP hits its round/iteration caps.
Result<ExtensionValue> EvalLipschitzExtension(
    const Graph& g, double delta, const ExtensionOptions& options = {});

// Convenience: value-only accessor that CHECK-fails on LP resource
// exhaustion. Suitable for tests and experiments with sane caps.
double LipschitzExtensionValue(const Graph& g, double delta,
                               const ExtensionOptions& options = {});

}  // namespace nodedp

#endif  // NODEDP_CORE_LIPSCHITZ_EXTENSION_H_
