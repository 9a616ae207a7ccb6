// Dinic max-flow with real-valued capacities and min-cut extraction.
//
// Substrate for the forest-polytope LP (Definition 3.1): the separation
// oracle for constraints (5) solves one project-selection min cut per root
// on an (n+2)-node network, and the Δ <= 1 cells are one bipartite-matching
// max flow (core/forest_polytope.h). Capacities are doubles; Dinic
// terminates in O(V^2 E) augmentations regardless, with an epsilon floor to
// ignore numerically empty augmenting paths.
//
// Storage note: arcs live in one flat array with per-node head-inserted
// `next` links. A CSR arc index (permuting arcs into tail-grouped slices at
// Solve time) was implemented and benchmarked during the graph-core CSR
// refactor and measured 5-10% *slower* on BM_SeparationOracle: the oracle's
// networks are small enough to be cache-resident, so the linked-list chase
// is cheap and the per-Solve counting-sort passes are pure overhead. Use
// ReserveArcs when the arc count is known to avoid regrowth, and the
// copy-with-spare-arcs constructor to extend a shared, once-built network
// per query without regrowing the copy.

#ifndef NODEDP_FLOW_DINIC_H_
#define NODEDP_FLOW_DINIC_H_

#include <limits>
#include <vector>

namespace nodedp {

class Dinic {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  explicit Dinic(int num_nodes);

  // Copies `base`, which must be unsolved, with room for `spare_arcs` more
  // AddArc calls.
  Dinic(const Dinic& base, int spare_arcs);

  // Pre-sizes internal storage for `expected_arcs` AddArc calls (a hint,
  // not a cap). Callers that know the network shape avoid every regrowth.
  void ReserveArcs(int expected_arcs);

  // Adds a directed arc u -> v with the given capacity, paired with the
  // reverse arc v -> u of capacity `reverse_capacity` (0 for a one-way arc;
  // x for an undirected edge of capacity x). Returns the forward arc id.
  int AddArc(int u, int v, double capacity, double reverse_capacity = 0.0);

  // Computes the max flow from `source` to `sink`. May be called once per
  // instance. Flow values below `eps` are treated as zero when searching for
  // augmenting paths.
  double Solve(int source, int sink, double eps = 1e-12);

  // After Solve: true iff `v` is reachable from the source in the residual
  // network, i.e., v lies on the source side of a minimum cut.
  bool OnSourceSide(int v) const;

  // After Solve: the flow on `arc`, a forward arc id from AddArc that was
  // added with zero reverse capacity.
  double Flow(int arc) const;

  int num_nodes() const { return static_cast<int>(first_arc_.size()); }

 private:
  struct Arc {
    int to;
    int next;       // next arc id out of the same tail, -1 terminates
    double residual;
  };

  bool BuildLevels(int source, int sink, double eps);
  double Push(int u, int sink, double limit, double eps);

  std::vector<Arc> arcs_;
  std::vector<int> first_arc_;
  std::vector<int> level_;
  std::vector<int> iter_;   // current-arc optimization
  std::vector<int> queue_;  // BuildLevels BFS order, reused every phase
  bool solved_ = false;
};

}  // namespace nodedp

#endif  // NODEDP_FLOW_DINIC_H_
