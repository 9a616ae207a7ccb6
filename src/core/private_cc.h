// Algorithm 1: the node-private release of the spanning-forest size, and the
// derived release of the number of connected components via Eq. (1).
//
// PrivateSpanningForestSize(G, ε):
//   1. Evaluate the extension family {f_Δ} on the powers-of-two grid
//      Δ ∈ {1, 2, 4, ..., Δmax} (Algorithm 4, step 1) and form
//      q_Δ = |f_Δ(G) − f_sf(G)| + Δ/(ε/2)  (Eq. (7), at GEM budget ε/2).
//   2. Select Δ̂ with GEM at budget ε/2 and failure probability β.
//   3. Release f_Δ̂(G) + Lap(2Δ̂/ε)  (budget ε/2; f_Δ̂ is Δ̂-Lipschitz).
//   Total privacy: ε by sequential composition (Lemma 2.4).
//
// PrivateConnectedComponents(G, ε):
//   splits ε between a Laplace release of |V(G)| (sensitivity 1) and the
//   spanning-forest release, returning n̂ − f̂sf  (Eq. (1)).
//
// Accuracy (Theorems 1.3 / 1.5): with probability 1 − O(β) the error is
// Δ* · O(ln(ln(Δmax)/β) · ln(1/β)) / ε, and Δ* <= DS_fsf(G) + 1 = s(G) + 1.

#ifndef NODEDP_CORE_PRIVATE_CC_H_
#define NODEDP_CORE_PRIVATE_CC_H_

#include <vector>

#include "core/extension_family.h"
#include "core/lipschitz_extension.h"
#include "dp/gem.h"
#include "util/random.h"
#include "util/status.h"

namespace nodedp {

struct PrivateCcOptions {
  // GEM failure probability β. <= 0 selects the paper's 1/ln(ln n) (clamped
  // to [0.01, 0.25] so small n behaves sensibly).
  double beta = 0.0;
  // Upper end of the Δ grid; <= 0 means n (the paper's choice). Lowering it
  // is an optimization that is valid whenever it is a data-independent
  // constant (e.g. a public degree cap).
  int delta_max = 0;
  // Fraction of the f_cc budget spent on the |V| release (rest goes to the
  // spanning-forest release). Only used by PrivateConnectedComponents.
  double node_count_budget_fraction = 0.5;
  ExtensionOptions extension;
};

struct SpanningForestRelease {
  double estimate = 0.0;         // the private release of f_sf(G)
  int selected_delta = 0;        // Δ̂ chosen by GEM
  double extension_value = 0.0;  // f_Δ̂(G) (pre-noise; NOT private)
  double laplace_scale = 0.0;    // 2Δ̂/ε
  double beta = 0.0;             // β actually used
  // Diagnostics (NOT private; for experiments/tests only):
  std::vector<GemCandidate> candidates;
  std::vector<int> grid;
};

struct ConnectedComponentsRelease {
  double estimate = 0.0;            // private release of f_cc(G)
  double node_count_estimate = 0.0; // private release of |V(G)|
  SpanningForestRelease forest;
};

// Algorithm 1. Requires epsilon > 0. Fails only if an extension evaluation
// exhausts its LP resource caps.
Result<SpanningForestRelease> PrivateSpanningForestSize(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateCcOptions& options = {});

// Same, evaluating extensions through a caller-owned ExtensionFamily. The
// LP values f_Δ(G) are deterministic, so experiments running many noise
// trials on one graph should construct the family once: later trials reuse
// its caches and pay only for noise sampling.
Result<SpanningForestRelease> PrivateSpanningForestSize(
    ExtensionFamily& family, double epsilon, Rng& rng,
    const PrivateCcOptions& options = {});

// ε-node-private estimate of the number of connected components (Eq. (1)).
Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateCcOptions& options = {});

// Family-reusing variant of the above.
Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    ExtensionFamily& family, double epsilon, Rng& rng,
    const PrivateCcOptions& options = {});

// The two family releases above with the Δ grid passed in: `grid_deltas`
// must equal AlgorithmOneDeltaGrid(family.num_vertices(), options). A
// caller that reads one family many times (serve/ReleaseServer) computes
// the grid once instead of per read. Same values, GEM choices and noise.
Result<SpanningForestRelease> PrivateSpanningForestSize(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    double epsilon, Rng& rng, const PrivateCcOptions& options);
Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    double epsilon, Rng& rng, const PrivateCcOptions& options);

// The β the paper uses, 1/ln(ln n), clamped for small n.
double DefaultBeta(int num_vertices);

// The Δ grid Algorithm 1 evaluates — PowersOfTwoGrid over options.delta_max
// (the paper's default of n when <= 0) — as doubles ready for
// ExtensionFamily::Values. The single source of the grid: every release,
// the sweep entry points below and the serving layer's load-time warm use
// it, so a warmed family always has exactly the cells a later release will
// touch.
std::vector<double> AlgorithmOneDeltaGrid(int num_vertices,
                                          const PrivateCcOptions& options);

// ---------------------------------------------------------------------------
// Epsilon sweeps on one warmed family
//
// The release-server shape: many releases at different ε against the SAME
// graph. The expensive part of Algorithm 1 — evaluating {f_Δ} over the grid
// — does not depend on ε, so the sweep warms the family's grid once (on the
// pool) and then answers each ε in order on the calling thread against the
// cached values; each release pays only for GEM scoring and noise sampling.
// Release k draws from the k-th child split from `rng`, an invalid ε (<= 0,
// reported in its slot) included, so `rng` advances exactly |epsilons|
// splits and results are bit-identical at any thread count.
//
// Privacy: all releases read the same database, so publishing the sweep
// costs Σ ε_i by sequential composition (Lemma 2.4) — the caller (e.g.
// serve/ReleaseServer's budget ledger) is responsible for accounting the
// sum, exactly as with repeated single releases.
// ---------------------------------------------------------------------------

std::vector<Result<SpanningForestRelease>> SweepSpanningForest(
    ExtensionFamily& family, const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options = {});

std::vector<Result<ConnectedComponentsRelease>> SweepConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options = {});

// The same sweep with the Δ grid passed in, as for the releases above.
std::vector<Result<ConnectedComponentsRelease>> SweepConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options);

}  // namespace nodedp

#endif  // NODEDP_CORE_PRIVATE_CC_H_
