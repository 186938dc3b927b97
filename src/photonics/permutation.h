// Permutations and waveguide-crossing accounting.
//
// A CR layer in a PTC block is a permutation of the K waveguides (paper
// Eq. 4). Its hardware cost is the minimum number of pairwise waveguide
// crossings needed to realize it with a planar routing network, which equals
// the permutation's inversion count (the minimum number of adjacent
// transpositions that sorts it) — exactly the counting rule the paper uses
// for #CR(P_b).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "photonics/linalg.h"

namespace adept::photonics {

// Permutation pi over {0..k-1}. Convention: applying the permutation to a
// signal vector x yields y with y[i] = x[pi(i)]; the matrix form has
// M[i, pi(i)] = 1 so that y = M x.
class Permutation {
 public:
  Permutation() = default;
  explicit Permutation(std::vector<int> map);

  static Permutation identity(int k);
  static Permutation reversal(int k);
  static Permutation random(int k, adept::Rng& rng);

  int size() const { return static_cast<int>(map_.size()); }
  int operator()(int i) const { return map_[static_cast<std::size_t>(i)]; }
  const std::vector<int>& map() const { return map_; }

  bool is_identity() const;
  bool operator==(const Permutation& other) const { return map_ == other.map_; }

  RMat to_matrix() const;
  CMat to_cmatrix() const;

 private:
  std::vector<int> map_;
};

// True if `map` is a bijection over {0..k-1}.
bool is_valid_permutation(const std::vector<int>& map);

// Inversion count of the permutation = minimum number of adjacent swaps =
// number of waveguide crossings needed to realize it (O(k log k) merge sort).
std::int64_t crossing_count(const Permutation& p);

// Brute-force O(k^2) inversion count; used to cross-check in tests.
std::int64_t crossing_count_naive(const Permutation& p);

// Parse a (possibly relaxed) doubly-stochastic matrix as a permutation when
// every row/col has a single dominant entry >= 1 - tol; returns false
// otherwise.
bool permutation_from_matrix(const RMat& m, double tol, Permutation* out);

}  // namespace adept::photonics
