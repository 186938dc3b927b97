// Stochastic permutation legalization (paper Eq. 13, Fig. 3).
//
// ALM optimization of relaxed permutations can stall at saddle points (e.g.
// two rows sharing mass on the same column). SPL forces a legal permutation:
//   1. row-softmax with temperature tau -> near-binary matrix
//   2. SVD-based orthogonal (Procrustes) projection pushes away from saddles
//   3. Gaussian perturbation delta breaks row ties
//   4. hard row-argmax; retry until the result is a legal permutation
// Among legal candidates we keep the one with the fewest crossings. A
// Hungarian assignment on the projected scores guarantees termination.
#pragma once

#include "autograd/tensor.h"
#include "common/rng.h"
#include "photonics/linalg.h"
#include "photonics/permutation.h"

namespace adept::core {

struct SplConfig {
  double tau = 0.05;          // softmax temperature (tau -> 0+ in the paper)
  double noise_sigma = 0.05;  // std-dev of the tie-breaking perturbation
  int max_attempts = 64;      // stochastic rounding attempts
  int keep_best_of = 8;       // legal candidates to compare by crossing count
};

// Legalize one relaxed permutation matrix ([K,K], non-negative rows summing
// to ~1). Always returns a legal permutation. A NaN or +-Inf entry throws
// std::invalid_argument naming the first one (message contains
// "non-finite"), so a diverged search surfaces here instead of hanging.
photonics::Permutation stochastic_permutation_legalization(
    const photonics::RMat& relaxed, adept::Rng& rng, const SplConfig& config = {});

// Convenience overload for autograd tensors.
photonics::Permutation stochastic_permutation_legalization(
    const ag::Tensor& relaxed, adept::Rng& rng, const SplConfig& config = {});

// Maximum-weight perfect matching on a dense score matrix (Hungarian
// algorithm, O(K^3)). Exposed for tests and used as the SPL fallback.
// Refuses non-finite scores the same way.
photonics::Permutation hungarian_assignment(const photonics::RMat& score);

}  // namespace adept::core
