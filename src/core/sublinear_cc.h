// Sublinear (non-private) estimation of the number of connected components
// by vertex sampling with truncated BFS — the classical baseline family the
// paper's introduction cites ([CRT05], [BKM14], [KW20]).
//
// The estimator uses the identity f_cc(G) = Σ_v 1/|C(v)| (each component
// contributes 1). Sample s vertices uniformly; for each, run BFS truncated
// at `cutoff` visited vertices and contribute 1/|C(v)| if the component was
// exhausted, 0 otherwise. The estimate is n times the sample mean.
// Truncation biases the estimate DOWN by at most n/cutoff (components
// larger than the cutoff contribute less than 1 each... at most
// n/cutoff · cutoff · (1/cutoff) = n/cutoff in total), and sampling adds
// O(n/sqrt(s)) noise — the standard additive-error trade-off of the
// sublinear literature.
//
// Role in this repo: a NON-private comparator for the experiments
// (SublinearConnectedComponents), plus the private approx serving tier
// built on it (PrivateSublinearCc) — a node-DP release of the truncated
// component-count surrogate F_T whose Laplace noise is calibrated to the
// estimator's own truncation bias.
//
// Cost. Both estimators share the graph's per-vertex memo of truncated
// component sizes (Graph::ComponentSizeMemo, one byte per vertex while
// T < 255): each BFS writes its answer into every vertex it touched, so a
// sample on a filled vertex is one load. A read is O(s * T) on a fresh
// graph and O(s) lookups once the sampled vertices' components are known.
// The draws, the per-sample values and the summation order are the same
// with or without the memo, so every estimate is bitwise the same.
//
// Privacy analysis of PrivateSublinearCc (derivation in
// docs/ARCHITECTURE.md). Let T = bfs_cutoff, D = delta_max (public degree
// promise; D = n when unconditional), and let q_G(v) = 1{|C(v)| <= T} /
// |C(v)|, so Sum_v q_G(v) = F_T(G), the number of components of size at
// most T. The estimator samples s DISTINCT vertices (without replacement;
// crucial — with replacement all samples can land on one affected vertex
// and the sensitivity degrades to Theta(n)) and releases (n/s) times the
// sample sum. Removing a vertex v* of degree at most D changes q on
// C(v*) only, with Sum_v |Delta q(v)| <= D + 1; coupling the sample sets
// of neighboring graphs (swap v* for a fresh vertex) gives worst-case
// estimator sensitivity
//
//   Delta_approx = 1 + (n/s) * (D + 2).
//
// Auto-calibration picks s = T * (D + 2), making the noise scale
// Delta/eps match the truncation bias bound n/T — noise and bias shrink
// together as the caller spends more cutoff. When s >= n/2 the sampling
// detour is pointless: the release computes F_T exactly (one O(n + m)
// pass, zero sampling error) under the same sensitivity bound at s = n.

#ifndef NODEDP_CORE_SUBLINEAR_CC_H_
#define NODEDP_CORE_SUBLINEAR_CC_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/random.h"
#include "util/status.h"

namespace nodedp {

struct SublinearCcOptions {
  int num_samples = 256;
  int bfs_cutoff = 64;  // component-size truncation threshold
};

struct SublinearCcEstimate {
  double estimate = 0.0;
  // Vertices the truncated BFSs expanded. A sample answered from the
  // graph's memo (Graph::ComponentSizeMemo) runs no BFS and adds 0.
  std::int64_t vertices_visited = 0;
};

// Estimates f_cc(G). Not differentially private. Requires num_samples >= 1
// and bfs_cutoff >= 1; returns 0 for the empty graph.
SublinearCcEstimate SublinearConnectedComponents(
    const Graph& g, Rng& rng, const SublinearCcOptions& options = {});

struct PrivateSublinearCcOptions {
  // Distinct vertices to sample; 0 means auto = bfs_cutoff * (delta_max+2)
  // (clamped to [1, n]), which balances Laplace noise against truncation
  // bias. Values >= n/2 switch to the exact F_T pass.
  int num_samples = 0;
  int bfs_cutoff = 64;
  // Public degree promise D (as in the exact tier's delta_max). <= 0 means
  // no promise: D = n, unconditionally private but very noisy.
  int delta_max = 0;
};

// Everything an approx-tier release reports. `estimate` is the private
// output; every other field is a function of public parameters (n, s, T,
// D, epsilon) and costs no privacy budget — EXCEPT raw_estimate, which is
// the pre-noise value, kept for benchmarks/diagnostics and never put on
// the wire.
struct SublinearCcRelease {
  double estimate = 0.0;       // private: raw + Lap(sensitivity/epsilon)
  double raw_estimate = 0.0;   // NOT private; diagnostics only
  int num_samples = 0;         // s actually used (n on the exact-F_T path)
  int bfs_cutoff = 0;          // T
  int delta_max = 0;           // effective D (n when unconditional)
  bool exact_ft = false;       // true when F_T was computed exactly
  double sensitivity = 0.0;    // Delta_approx = 1 + (n/s)(D+2)
  double laplace_scale = 0.0;  // sensitivity / epsilon
  // Deterministic one-sided bias of F_T vs f_cc: components larger than T
  // are not counted, undershooting by at most n/T.
  double truncation_bias_bound = 0.0;
  // Sampling deviation |raw - F_T| is O(n/sqrt(s)); 0 on the exact path.
  double sampling_error_bound = 0.0;
  // Vertices the BFSs expanded; memo hits add 0 (see SublinearCcEstimate).
  std::int64_t vertices_visited = 0;
};

// Epsilon-node-DP release of the truncated component count F_T (a
// surrogate for f_cc with public error bounds, above). Requires
// epsilon > 0, bfs_cutoff >= 1, num_samples >= 0. Empty graph releases
// 0 + Lap(1/epsilon).
Result<SublinearCcRelease> PrivateSublinearCc(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateSublinearCcOptions& options = {});

}  // namespace nodedp

#endif  // NODEDP_CORE_SUBLINEAR_CC_H_
