#include "flow/dinic.h"

#include <algorithm>

#include "util/check.h"

namespace nodedp {

Dinic::Dinic(int num_nodes)
    : first_arc_(num_nodes, -1), level_(num_nodes), iter_(num_nodes) {
  NODEDP_CHECK_GE(num_nodes, 0);
}

Dinic::Dinic(const Dinic& base, int spare_arcs)
    : first_arc_(base.first_arc_),
      level_(base.level_.size()),
      iter_(base.iter_.size()) {
  NODEDP_CHECK_MSG(!base.solved_, "copy the network before Solve()");
  NODEDP_CHECK_GE(spare_arcs, 0);
  arcs_.reserve(base.arcs_.size() + 2 * static_cast<std::size_t>(spare_arcs));
  arcs_.assign(base.arcs_.begin(), base.arcs_.end());
}

void Dinic::ReserveArcs(int expected_arcs) {
  NODEDP_CHECK_GE(expected_arcs, 0);
  arcs_.reserve(2 * static_cast<std::size_t>(expected_arcs));
}

int Dinic::AddArc(int u, int v, double capacity, double reverse_capacity) {
  NODEDP_CHECK_GE(capacity, 0.0);
  NODEDP_CHECK_GE(reverse_capacity, 0.0);
  NODEDP_DCHECK(u >= 0 && u < num_nodes());
  NODEDP_DCHECK(v >= 0 && v < num_nodes());
  const int id = static_cast<int>(arcs_.size());
  arcs_.push_back(Arc{v, first_arc_[u], capacity});
  first_arc_[u] = id;
  arcs_.push_back(Arc{u, first_arc_[v], reverse_capacity});
  first_arc_[v] = id + 1;
  return id;
}

bool Dinic::BuildLevels(int source, int sink, double eps) {
  std::fill(level_.begin(), level_.end(), -1);
  level_[source] = 0;
  queue_.reserve(first_arc_.size());
  queue_.clear();
  queue_.push_back(source);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int u = queue_[head];
    for (int a = first_arc_[u]; a >= 0; a = arcs_[a].next) {
      if (arcs_[a].residual > eps && level_[arcs_[a].to] < 0) {
        level_[arcs_[a].to] = level_[u] + 1;
        queue_.push_back(arcs_[a].to);
      }
    }
  }
  return level_[sink] >= 0;
}

double Dinic::Push(int u, int sink, double limit, double eps) {
  if (u == sink) return limit;
  for (int& a = iter_[u]; a >= 0; a = arcs_[a].next) {
    Arc& arc = arcs_[a];
    if (arc.residual > eps && level_[arc.to] == level_[u] + 1) {
      const double pushed =
          Push(arc.to, sink, std::min(limit, arc.residual), eps);
      if (pushed > eps) {
        arc.residual -= pushed;
        arcs_[a ^ 1].residual += pushed;
        return pushed;
      }
    }
  }
  level_[u] = -1;  // dead end; prune from this phase
  return 0.0;
}

double Dinic::Solve(int source, int sink, double eps) {
  NODEDP_CHECK_MSG(!solved_, "Dinic::Solve may be called only once");
  NODEDP_CHECK_NE(source, sink);
  solved_ = true;
  double total = 0.0;
  while (BuildLevels(source, sink, eps)) {
    iter_ = first_arc_;
    for (;;) {
      const double pushed = Push(source, sink, kInfinity, eps);
      if (pushed <= eps) break;
      total += pushed;
    }
  }
  // Final residual BFS defines the cut; BuildLevels already left level_ with
  // source-side reachability (level >= 0).
  return total;
}

bool Dinic::OnSourceSide(int v) const {
  NODEDP_CHECK_MSG(solved_, "call Solve() first");
  return level_[v] >= 0;
}

double Dinic::Flow(int arc) const {
  NODEDP_CHECK_MSG(solved_, "call Solve() first");
  NODEDP_DCHECK(arc >= 0 && (arc & 1) == 0 &&
                arc < static_cast<int>(arcs_.size()));
  return arcs_[arc ^ 1].residual;
}

}  // namespace nodedp
