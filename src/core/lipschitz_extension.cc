#include "core/lipschitz_extension.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/degree_improve.h"
#include "graph/connectivity.h"
#include "graph/subgraph.h"
#include "util/check.h"

namespace nodedp {

namespace {

// Evaluates one connected component, accumulating stats into `result`.
Status EvalPiece(const Graph& piece, double delta,
                 const ExtensionOptions& options, ExtensionValue* result) {
  if (piece.NumEdges() == 0) return Status::OK();
  if (options.use_repair_fast_path) {
    // A spanning forest of degree <= floor(delta) certifies
    // f_Δ = f_sf exactly (Lemma 3.3, Item 1). Try Algorithm 3 repair, then
    // local-search degree reduction (core/degree_improve.h).
    const int degree_cap = static_cast<int>(std::floor(delta));
    if (degree_cap >= 1 &&
        FindSpanningForestOfDegree(piece, degree_cap).has_value()) {
      result->value += SpanningForestSize(piece);
      ++result->components_fast;
      return Status::OK();
    }
  }
  ForestPolytopeResult lp =
      MaximizeOverForestPolytope(piece, delta, options.polytope);
  result->cut_rounds += lp.cut_rounds;
  result->cuts_added += lp.cuts_added;
  result->simplex_iterations += lp.simplex_iterations;
  result->cold_restarts += lp.cold_restarts;
  if (lp.status != LpStatus::kOptimal) {
    return Status::ResourceExhausted(
        std::string("forest-polytope LP did not converge: ") +
        LpStatusName(lp.status));
  }
  result->value += lp.value;
  ++result->components_lp;
  return Status::OK();
}

}  // namespace

Result<ExtensionValue> EvalLipschitzExtension(const Graph& g, double delta,
                                              const ExtensionOptions& options) {
  if (delta < 1.0) {
    return Status::InvalidArgument("delta must be >= 1 (Algorithm 1 grid)");
  }
  ExtensionValue result;
  if (g.NumEdges() == 0) return result;

  for (const std::vector<int>& component : ComponentVertexSets(g)) {
    if (component.size() < 2) continue;
    InducedSubgraph piece = Induce(g, component);
    Status status = EvalPiece(piece.graph, delta, options, &result);
    if (!status.ok()) return status;
  }
  return result;
}

double LipschitzExtensionValue(const Graph& g, double delta,
                               const ExtensionOptions& options) {
  Result<ExtensionValue> result = EvalLipschitzExtension(g, delta, options);
  NODEDP_CHECK_MSG(result.ok(), result.status().ToString());
  return result->value;
}

}  // namespace nodedp
