#include <gtest/gtest.h>

#include "common/rng.h"
#include "photonics/permutation.h"

namespace {

namespace ph = adept::photonics;
using adept::Rng;
using ph::Permutation;

TEST(Permutation, IdentityAndReversal) {
  const auto id = Permutation::identity(5);
  EXPECT_TRUE(id.is_identity());
  EXPECT_EQ(ph::crossing_count(id), 0);
  const auto rev = Permutation::reversal(5);
  EXPECT_EQ(rev(0), 4);
  // reversal has maximal inversions n(n-1)/2
  EXPECT_EQ(ph::crossing_count(rev), 10);
}

TEST(Permutation, RejectsNonBijection) {
  EXPECT_THROW(Permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Permutation({0, 3, 1}), std::invalid_argument);
  EXPECT_FALSE(ph::is_valid_permutation({1, 1}));
  EXPECT_TRUE(ph::is_valid_permutation({1, 0}));
}

TEST(Permutation, MatrixActsLikeApply) {
  Rng rng(3);
  const auto p = Permutation::random(5, rng);
  const ph::CMat m = p.to_cmatrix();
  std::vector<ph::cplx> x = {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
  const auto y = m * x;
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)].real(),
                x[static_cast<std::size_t>(p(i))].real(), 1e-12);
  }
}

class CrossingCountTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossingCountTest, MergeSortMatchesNaive) {
  const auto [k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto p = Permutation::random(k, rng);
  EXPECT_EQ(ph::crossing_count(p), ph::crossing_count_naive(p));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossingCountTest,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 64),
                                            ::testing::Values(1, 2, 3)));

TEST(CrossingCount, AdjacentSwapIsOne) {
  EXPECT_EQ(ph::crossing_count(Permutation({1, 0, 2, 3})), 1);
  EXPECT_EQ(ph::crossing_count(Permutation({0, 2, 1, 3})), 1);
}

TEST(PermutationFromMatrix, AcceptsDominantMatrix) {
  Rng rng(4);
  const auto p = Permutation::random(6, rng);
  ph::RMat m = p.to_matrix();
  for (auto& v : m.data()) v = v * 0.98 + 0.002;
  Permutation out;
  ASSERT_TRUE(ph::permutation_from_matrix(m, 0.05, &out));
  EXPECT_EQ(out, p);
}

TEST(PermutationFromMatrix, RejectsAmbiguous) {
  ph::RMat m(3, 3);
  for (auto& v : m.data()) v = 1.0 / 3.0;
  EXPECT_FALSE(ph::permutation_from_matrix(m, 0.05, nullptr));
}

TEST(PermutationFromMatrix, RejectsDuplicateColumns) {
  ph::RMat m = ph::RMat::identity(3);
  m.at(1, 1) = 0.0;
  m.at(1, 0) = 1.0;  // rows 0 and 1 both pick column 0
  EXPECT_FALSE(ph::permutation_from_matrix(m, 0.05, nullptr));
}

}  // namespace
