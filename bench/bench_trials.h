// Shared scaffold for the experiment benches' noise-trial loops.
//
// Every E1-E8 bench has the same shape per table row: evaluate one release
// function many times against a shared (expensive-to-warm) ExtensionFamily
// and summarize the error distribution. RunWarmedTrials standardizes the
// protocol:
//
//   1. one warm call on a fixed throwaway stream populates the family's
//      grid caches (on the pool), so the trials below are pure noise
//      sampling;
//   2. the trials run in order on the calling thread, trial i on the i-th
//      child split from `rng`, so every bench table is identical at any
//      NODEDP_THREADS width.
//
// If the warm call fails, its failure is returned as the single result so
// callers report it through their normal per-trial error path.

#ifndef NODEDP_BENCH_BENCH_TRIALS_H_
#define NODEDP_BENCH_BENCH_TRIALS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/random.h"

namespace nodedp {
namespace bench {

// fn: (Rng&) -> Result<T>. Returns `trials` results in trial order (or the
// warm call's failure alone).
template <typename Fn>
auto RunWarmedTrials(Rng& rng, int trials, Fn&& fn)
    -> std::vector<decltype(fn(std::declval<Rng&>()))> {
  using ResultT = decltype(fn(std::declval<Rng&>()));
  {
    Rng warm_rng(1);
    ResultT warm = fn(warm_rng);
    if (!warm.ok()) {
      std::vector<ResultT> failed;
      failed.push_back(std::move(warm));
      return failed;
    }
  }
  std::vector<ResultT> results;
  results.reserve(static_cast<std::size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    Rng child = rng.Split();
    results.push_back(fn(child));
  }
  return results;
}

}  // namespace bench
}  // namespace nodedp

#endif  // NODEDP_BENCH_BENCH_TRIALS_H_
