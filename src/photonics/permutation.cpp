#include "photonics/permutation.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace adept::photonics {

Permutation::Permutation(std::vector<int> map) : map_(std::move(map)) {
  if (!is_valid_permutation(map_)) {
    throw std::invalid_argument("Permutation: map is not a bijection");
  }
}

Permutation Permutation::identity(int k) {
  std::vector<int> m(static_cast<std::size_t>(k));
  std::iota(m.begin(), m.end(), 0);
  return Permutation(std::move(m));
}

Permutation Permutation::reversal(int k) {
  std::vector<int> m(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) m[static_cast<std::size_t>(i)] = k - 1 - i;
  return Permutation(std::move(m));
}

Permutation Permutation::random(int k, adept::Rng& rng) {
  std::vector<int> m(static_cast<std::size_t>(k));
  std::iota(m.begin(), m.end(), 0);
  rng.shuffle(m);
  return Permutation(std::move(m));
}

bool Permutation::is_identity() const {
  for (std::size_t i = 0; i < map_.size(); ++i) {
    if (map_[i] != static_cast<int>(i)) return false;
  }
  return true;
}

RMat Permutation::to_matrix() const {
  const int k = size();
  RMat m(k, k);
  for (int i = 0; i < k; ++i) m.at(i, map_[static_cast<std::size_t>(i)]) = 1.0;
  return m;
}

CMat Permutation::to_cmatrix() const {
  const int k = size();
  CMat m(k, k);
  for (int i = 0; i < k; ++i) m.at(i, map_[static_cast<std::size_t>(i)]) = 1.0;
  return m;
}

bool is_valid_permutation(const std::vector<int>& map) {
  std::vector<bool> seen(map.size(), false);
  for (int v : map) {
    if (v < 0 || v >= static_cast<int>(map.size()) || seen[static_cast<std::size_t>(v)]) {
      return false;
    }
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

namespace {

std::int64_t merge_count(std::vector<int>& a, std::vector<int>& tmp, std::size_t lo,
                         std::size_t hi) {
  if (hi - lo <= 1) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::int64_t inv = merge_count(a, tmp, lo, mid) + merge_count(a, tmp, mid, hi);
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (a[i] <= a[j]) {
      tmp[k++] = a[i++];
    } else {
      inv += static_cast<std::int64_t>(mid - i);
      tmp[k++] = a[j++];
    }
  }
  while (i < mid) tmp[k++] = a[i++];
  while (j < hi) tmp[k++] = a[j++];
  std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
            tmp.begin() + static_cast<std::ptrdiff_t>(hi),
            a.begin() + static_cast<std::ptrdiff_t>(lo));
  return inv;
}

}  // namespace

std::int64_t crossing_count(const Permutation& p) {
  std::vector<int> a = p.map();
  std::vector<int> tmp(a.size());
  return merge_count(a, tmp, 0, a.size());
}

std::int64_t crossing_count_naive(const Permutation& p) {
  const auto& m = p.map();
  std::int64_t inv = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = i + 1; j < m.size(); ++j) {
      if (m[i] > m[j]) ++inv;
    }
  }
  return inv;
}

bool permutation_from_matrix(const RMat& m, double tol, Permutation* out) {
  if (m.rows() != m.cols()) return false;
  const std::int64_t k = m.rows();
  std::vector<int> map(static_cast<std::size_t>(k), -1);
  std::vector<bool> used(static_cast<std::size_t>(k), false);
  for (std::int64_t i = 0; i < k; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (m.at(i, j) > m.at(i, best)) best = j;
    }
    if (m.at(i, best) < 1.0 - tol) return false;
    if (used[static_cast<std::size_t>(best)]) return false;
    used[static_cast<std::size_t>(best)] = true;
    map[static_cast<std::size_t>(i)] = static_cast<int>(best);
  }
  if (out != nullptr) *out = Permutation(std::move(map));
  return true;
}

}  // namespace adept::photonics
