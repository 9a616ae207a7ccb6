#include "core/private_cc.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "dp/composition.h"
#include "dp/laplace.h"
#include "graph/connectivity.h"
#include "util/check.h"

namespace nodedp {

double DefaultBeta(int num_vertices) {
  const double n = std::max(3, num_vertices);
  const double beta = 1.0 / std::log(std::log(n) + 1.0);
  return std::clamp(beta, 0.01, 0.25);
}

std::vector<double> AlgorithmOneDeltaGrid(int num_vertices,
                                          const PrivateCcOptions& options) {
  const int delta_max =
      options.delta_max > 0 ? options.delta_max : std::max(1, num_vertices);
  const std::vector<int> grid = PowersOfTwoGrid(delta_max);
  return std::vector<double>(grid.begin(), grid.end());
}

Result<SpanningForestRelease> PrivateSpanningForestSize(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateCcOptions& options) {
  ExtensionFamily family(g, options.extension);
  return PrivateSpanningForestSize(family, epsilon, rng, options);
}

Result<SpanningForestRelease> PrivateSpanningForestSize(
    ExtensionFamily& family, double epsilon, Rng& rng,
    const PrivateCcOptions& options) {
  return PrivateSpanningForestSize(
      family, AlgorithmOneDeltaGrid(family.num_vertices(), options), epsilon,
      rng, options);
}

Result<SpanningForestRelease> PrivateSpanningForestSize(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    double epsilon, Rng& rng, const PrivateCcOptions& options) {
  NODEDP_CHECK_GT(epsilon, 0.0);
  NODEDP_DCHECK(grid_deltas ==
                AlgorithmOneDeltaGrid(family.num_vertices(), options));
  PrivacyAccountant accountant(epsilon);
  const double gem_epsilon = accountant.Spend(epsilon / 2.0, "gem");
  const double laplace_epsilon =
      accountant.Spend(epsilon / 2.0, "laplace-release");

  SpanningForestRelease release;
  release.beta = options.beta > 0.0 ? options.beta
                                    : DefaultBeta(family.num_vertices());

  release.grid.reserve(grid_deltas.size());
  for (double delta : grid_deltas) {
    release.grid.push_back(static_cast<int>(delta));
  }

  // Step 1 of Algorithm 4: evaluate the extension family and the scores
  // q_Δ = |f_Δ − f_sf| + Δ/ε_gem. The extensions underestimate (Lemma 3.3),
  // so the absolute value is f_sf − f_Δ. The grid is evaluated as one batch
  // so independent Δ cells run concurrently (see ExtensionFamily::Values).
  const double f_sf = family.SpanningForestSizeValue();
  Result<std::vector<double>> values = family.Values(grid_deltas);
  if (!values.ok()) return values.status();
  const std::vector<double>& extension_values = *values;
  std::vector<GemCandidate> candidates;
  candidates.reserve(release.grid.size());
  for (std::size_t i = 0; i < release.grid.size(); ++i) {
    GemCandidate candidate;
    candidate.lipschitz = release.grid[i];
    candidate.q = (f_sf - extension_values[i]) + release.grid[i] / gem_epsilon;
    candidates.push_back(candidate);
  }

  // Step 1 of Algorithm 1: GEM at ε/2.
  const GemResult gem = GemSelect(candidates, gem_epsilon, release.beta, rng);
  release.candidates = std::move(candidates);
  release.selected_delta = release.grid[gem.selected_index];

  // Steps 2-3: release f_Δ̂ via the Laplace mechanism at ε/2; f_Δ̂ is
  // Δ̂-Lipschitz (Lemma 3.3), so the scale is Δ̂/(ε/2) = 2Δ̂/ε.
  release.extension_value = extension_values[gem.selected_index];
  release.laplace_scale = release.selected_delta / laplace_epsilon;
  release.estimate = LaplaceMechanism(release.extension_value,
                                      release.selected_delta,
                                      laplace_epsilon, rng);
  return release;
}

Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateCcOptions& options) {
  ExtensionFamily family(g, options.extension);
  return PrivateConnectedComponents(family, epsilon, rng, options);
}

Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    ExtensionFamily& family, double epsilon, Rng& rng,
    const PrivateCcOptions& options) {
  return PrivateConnectedComponents(
      family, AlgorithmOneDeltaGrid(family.num_vertices(), options), epsilon,
      rng, options);
}

Result<ConnectedComponentsRelease> PrivateConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    double epsilon, Rng& rng, const PrivateCcOptions& options) {
  NODEDP_CHECK_GT(epsilon, 0.0);
  NODEDP_CHECK_GT(options.node_count_budget_fraction, 0.0);
  NODEDP_CHECK_LT(options.node_count_budget_fraction, 1.0);
  PrivacyAccountant accountant(epsilon);
  const double count_epsilon = accountant.Spend(
      epsilon * options.node_count_budget_fraction, "node-count");
  const double forest_epsilon =
      accountant.Spend(epsilon - count_epsilon, "spanning-forest");

  ConnectedComponentsRelease release;
  // |V| has node-sensitivity exactly 1.
  release.node_count_estimate = LaplaceMechanism(
      family.num_vertices(), /*sensitivity=*/1.0, count_epsilon, rng);

  Result<SpanningForestRelease> forest = PrivateSpanningForestSize(
      family, grid_deltas, forest_epsilon, rng, options);
  if (!forest.ok()) return forest.status();
  release.forest = std::move(forest).value();

  // Eq. (1): f_cc = |V| - f_sf.
  release.estimate = release.node_count_estimate - release.forest.estimate;
  return release;
}

namespace {

// Shared shape of both sweep entry points: warm the family's Δ grid once
// (the ε-independent work), then answer each ε in order. A warm-up
// failure (LP resource exhaustion) is reported in every slot — the per-ε
// releases could not have succeeded either.
template <typename ReleaseType, typename ReleaseFn>
std::vector<Result<ReleaseType>> AnswerSweep(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    const std::vector<double>& epsilons, Rng& rng, const ReleaseFn& release) {
  const Result<std::vector<double>> warm = family.Values(grid_deltas);
  if (!warm.ok()) {
    return std::vector<Result<ReleaseType>>(epsilons.size(), warm.status());
  }
  std::vector<Result<ReleaseType>> results;
  results.reserve(epsilons.size());
  for (double epsilon : epsilons) {
    Rng child = rng.Split();
    if (!(epsilon > 0.0)) {
      results.push_back(Status::InvalidArgument("sweep epsilon must be > 0"));
    } else {
      results.push_back(release(epsilon, child));
    }
  }
  return results;
}

}  // namespace

std::vector<Result<SpanningForestRelease>> SweepSpanningForest(
    ExtensionFamily& family, const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options) {
  const std::vector<double> grid =
      AlgorithmOneDeltaGrid(family.num_vertices(), options);
  return AnswerSweep<SpanningForestRelease>(
      family, grid, epsilons, rng, [&](double epsilon, Rng& child) {
        return PrivateSpanningForestSize(family, grid, epsilon, child, options);
      });
}

std::vector<Result<ConnectedComponentsRelease>> SweepConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options) {
  return SweepConnectedComponents(
      family, AlgorithmOneDeltaGrid(family.num_vertices(), options), epsilons,
      rng, options);
}

std::vector<Result<ConnectedComponentsRelease>> SweepConnectedComponents(
    ExtensionFamily& family, const std::vector<double>& grid_deltas,
    const std::vector<double>& epsilons, Rng& rng,
    const PrivateCcOptions& options) {
  return AnswerSweep<ConnectedComponentsRelease>(
      family, grid_deltas, epsilons, rng, [&](double epsilon, Rng& child) {
        return PrivateConnectedComponents(family, grid_deltas, epsilon, child,
                                          options);
      });
}

}  // namespace nodedp
