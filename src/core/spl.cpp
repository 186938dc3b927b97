#include "core/spl.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace adept::core {

using photonics::Permutation;
using photonics::RMat;

namespace {

// A NaN score makes every comparison false: the Hungarian search then never
// finds a column to augment along and spins forever. Refuse it up front,
// naming the first offending entry in row-major order.
void check_finite_scores(const RMat& m, const char* who) {
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    for (std::int64_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m.at(i, j))) {
        std::ostringstream os;
        os << who << ": non-finite score " << m.at(i, j) << " at (" << i
           << ", " << j << ")";
        throw std::invalid_argument(os.str());
      }
    }
  }
}

RMat row_softmax(const RMat& m, double tau) {
  RMat out(m.rows(), m.cols());
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    double mx = -std::numeric_limits<double>::infinity();
    for (std::int64_t j = 0; j < m.cols(); ++j) mx = std::max(mx, m.at(i, j));
    double z = 0.0;
    for (std::int64_t j = 0; j < m.cols(); ++j) {
      out.at(i, j) = std::exp((m.at(i, j) - mx) / tau);
      z += out.at(i, j);
    }
    for (std::int64_t j = 0; j < m.cols(); ++j) out.at(i, j) /= z;
  }
  return out;
}

bool try_argmax_rounding(const RMat& score, Permutation* out) {
  const std::int64_t k = score.rows();
  std::vector<int> map(static_cast<std::size_t>(k), -1);
  std::vector<bool> used(static_cast<std::size_t>(k), false);
  for (std::int64_t i = 0; i < k; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (score.at(i, j) > score.at(i, best)) best = j;
    }
    if (used[static_cast<std::size_t>(best)]) return false;
    used[static_cast<std::size_t>(best)] = true;
    map[static_cast<std::size_t>(i)] = static_cast<int>(best);
  }
  *out = Permutation(std::move(map));
  return true;
}

}  // namespace

Permutation hungarian_assignment(const RMat& score) {
  check_finite_scores(score, "hungarian_assignment");
  // Standard O(K^3) Hungarian on costs = -score (we maximize total score).
  const std::int64_t n = score.rows();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> u(static_cast<std::size_t>(n + 1), 0.0);
  std::vector<double> v(static_cast<std::size_t>(n + 1), 0.0);
  std::vector<int> match(static_cast<std::size_t>(n + 1), 0);  // col -> row
  std::vector<int> way(static_cast<std::size_t>(n + 1), 0);
  auto cost = [&](std::int64_t i, std::int64_t j) { return -score.at(i - 1, j - 1); };
  for (std::int64_t i = 1; i <= n; ++i) {
    match[0] = static_cast<int>(i);
    std::int64_t j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(n + 1), inf);
    std::vector<bool> used(static_cast<std::size_t>(n + 1), false);
    do {
      used[static_cast<std::size_t>(j0)] = true;
      const std::int64_t i0 = match[static_cast<std::size_t>(j0)];
      double delta = inf;
      std::int64_t j1 = 0;
      for (std::int64_t j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const double cur = cost(i0, j) - u[static_cast<std::size_t>(i0)] -
                           v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = static_cast<int>(j0);
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      for (std::int64_t j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(match[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match[static_cast<std::size_t>(j0)] != 0);
    do {
      const std::int64_t j1 = way[static_cast<std::size_t>(j0)];
      match[static_cast<std::size_t>(j0)] = match[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> map(static_cast<std::size_t>(n), -1);
  for (std::int64_t j = 1; j <= n; ++j) {
    map[static_cast<std::size_t>(match[static_cast<std::size_t>(j)] - 1)] =
        static_cast<int>(j - 1);
  }
  return Permutation(std::move(map));
}

Permutation stochastic_permutation_legalization(const RMat& relaxed, adept::Rng& rng,
                                                const SplConfig& config) {
  check_finite_scores(relaxed, "stochastic_permutation_legalization");
  // Step 1: binarize by low-temperature row softmax.
  const RMat sharp = row_softmax(relaxed, config.tau);
  // Step 2: SVD (Procrustes) projection pushes away from saddle points.
  const RMat q = photonics::procrustes_orthogonalize(sharp);
  RMat base(q.rows(), q.cols());
  for (std::int64_t i = 0; i < q.rows(); ++i) {
    for (std::int64_t j = 0; j < q.cols(); ++j) base.at(i, j) = std::fabs(q.at(i, j));
  }
  // Steps 3-4: perturb + hard rounding; keep the legal candidate with the
  // fewest crossings.
  Permutation best;
  bool have_best = false;
  std::int64_t best_crossings = 0;
  int found = 0;
  for (int attempt = 0; attempt < config.max_attempts; ++attempt) {
    RMat noisy = base;
    if (attempt > 0) {  // first attempt is the unperturbed rounding
      for (auto& x : noisy.data()) x += rng.normal(0.0, config.noise_sigma);
    }
    Permutation candidate;
    if (!try_argmax_rounding(noisy, &candidate)) continue;
    const std::int64_t crossings = photonics::crossing_count(candidate);
    if (!have_best || crossings < best_crossings) {
      best = candidate;
      best_crossings = crossings;
      have_best = true;
    }
    if (++found >= config.keep_best_of) break;
  }
  if (have_best) return best;
  // Guaranteed-legal fallback: maximum-weight assignment on the scores.
  return hungarian_assignment(base);
}

Permutation stochastic_permutation_legalization(const ag::Tensor& relaxed,
                                                adept::Rng& rng,
                                                const SplConfig& config) {
  ag::check(relaxed.ndim() == 2 && relaxed.dim(0) == relaxed.dim(1),
            "SPL: square matrix expected");
  const std::int64_t k = relaxed.dim(0);
  RMat m(k, k);
  const auto& d = relaxed.data();
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      m.at(i, j) = d[static_cast<std::size_t>(i * k + j)];
    }
  }
  return stochastic_permutation_legalization(m, rng, config);
}

}  // namespace adept::core
