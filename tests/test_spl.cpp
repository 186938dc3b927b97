#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "core/spl.h"

namespace {

namespace core = adept::core;
namespace ph = adept::photonics;
using adept::Rng;

ph::RMat relaxed_from(const ph::Permutation& p, double noise, Rng& rng) {
  ph::RMat m = p.to_matrix();
  for (auto& v : m.data()) v = std::max(0.0, v * 0.8 + 0.2 / p.size() + rng.normal(0, noise));
  return m;
}

TEST(Spl, RecoversCleanPermutation) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto p = ph::Permutation::random(8, rng);
    const auto recovered =
        core::stochastic_permutation_legalization(relaxed_from(p, 0.01, rng), rng);
    EXPECT_EQ(recovered, p);
  }
}

class SplLegalityTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplLegalityTest, AlwaysProducesLegalPermutation) {
  const auto [k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  // Arbitrary non-negative garbage, including saddle-like duplicated rows.
  ph::RMat m(k, k);
  for (auto& v : m.data()) v = rng.uniform(0.0, 1.0);
  for (std::int64_t j = 0; j < k; ++j) m.at(1, j) = m.at(0, j);  // tie rows 0/1
  const auto p = core::stochastic_permutation_legalization(m, rng);
  EXPECT_EQ(p.size(), k);
  EXPECT_TRUE(ph::is_valid_permutation(p.map()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplLegalityTest,
                         ::testing::Combine(::testing::Values(4, 8, 16, 32),
                                            ::testing::Values(1, 2, 3)));

TEST(Spl, SaddlePointFromPaperFigure3) {
  // The Fig. 3 example: two rows share mass on the same column pair.
  ph::RMat m(3, 3);
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 0.71;
  m.at(1, 1) = 0.71;
  m.at(2, 2) = 1.0;
  m.at(0, 0) = 0.0;
  Rng rng(7);
  const auto p = core::stochastic_permutation_legalization(m, rng);
  EXPECT_TRUE(ph::is_valid_permutation(p.map()));
  // Row 2 is unambiguous.
  EXPECT_EQ(p(2), 2);
}

TEST(Spl, TensorOverload) {
  Rng rng(2);
  auto t = adept::ag::Tensor::from_data({2, 2}, {0.9f, 0.1f, 0.1f, 0.9f});
  const auto p = core::stochastic_permutation_legalization(t, rng);
  EXPECT_TRUE(p.is_identity());
}

TEST(Spl, PrefersFewerCrossingsAmongCandidates) {
  // A uniform matrix has no preference; SPL should pick a low-crossing legal
  // permutation among its stochastic candidates more often than random.
  Rng rng(3);
  ph::RMat m(6, 6);
  for (auto& v : m.data()) v = 1.0 / 6.0;
  long long total = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto p = core::stochastic_permutation_legalization(m, rng);
    total += ph::crossing_count(p);
  }
  // Random permutations of 6 average 7.5 crossings; candidate selection
  // should push well below that.
  EXPECT_LT(static_cast<double>(total) / trials, 7.5);
}

TEST(Hungarian, SolvesHandAssignment) {
  ph::RMat score(3, 3);
  // optimal assignment: 0->1, 1->2, 2->0 (total 9)
  score.at(0, 0) = 1;
  score.at(0, 1) = 3;
  score.at(0, 2) = 0;
  score.at(1, 0) = 0;
  score.at(1, 1) = 1;
  score.at(1, 2) = 3;
  score.at(2, 0) = 3;
  score.at(2, 1) = 0;
  score.at(2, 2) = 1;
  const auto p = core::hungarian_assignment(score);
  EXPECT_EQ(p(0), 1);
  EXPECT_EQ(p(1), 2);
  EXPECT_EQ(p(2), 0);
}

TEST(Hungarian, IdentityOnDiagonalDominance) {
  ph::RMat score = ph::RMat::identity(5);
  const auto p = core::hungarian_assignment(score);
  EXPECT_TRUE(p.is_identity());
}

class HungarianLegalityTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianLegalityTest, AlwaysLegal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int k = 4 + GetParam() * 3;
  ph::RMat score(k, k);
  for (auto& v : score.data()) v = rng.uniform(-1.0, 1.0);
  const auto p = core::hungarian_assignment(score);
  EXPECT_TRUE(ph::is_valid_permutation(p.map()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HungarianLegalityTest, ::testing::Values(1, 2, 3, 4));

TEST(Hungarian, MaximizesTotalScore) {
  // Compare against brute force on K=4.
  Rng rng(9);
  ph::RMat score(4, 4);
  for (auto& v : score.data()) v = rng.uniform(0.0, 1.0);
  const auto p = core::hungarian_assignment(score);
  double hungarian_total = 0;
  for (int i = 0; i < 4; ++i) hungarian_total += score.at(i, p(i));
  // brute force over all 24 permutations
  std::vector<int> idx = {0, 1, 2, 3};
  double best = -1;
  do {
    double s = 0;
    for (int i = 0; i < 4; ++i) s += score.at(i, idx[static_cast<std::size_t>(i)]);
    best = std::max(best, s);
  } while (std::next_permutation(idx.begin(), idx.end()));
  EXPECT_NEAR(hungarian_total, best, 1e-9);
}

// A NaN score used to leave the Hungarian search without a column to
// augment along, so it spun forever; a hang now fails through ctest's
// timeout instead of passing. Every non-finite kind must be refused by both
// entry points, naming the first offending entry.
std::string nonfinite_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

TEST(Hungarian, RefusesNonFiniteScores) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ph::RMat score = ph::RMat::identity(5);
    score.at(3, 1) = bad;
    score.at(4, 0) = bad;  // a later entry: the message names (3, 1)
    const std::string msg =
        nonfinite_message([&] { (void)core::hungarian_assignment(score); });
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(3, 1)"), std::string::npos) << msg;
  }
}

TEST(Spl, RefusesNonFiniteScores) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Rng rng(4);
    ph::RMat m = relaxed_from(ph::Permutation::random(6, rng), 0.01, rng);
    m.at(0, 5) = bad;
    const std::string msg = nonfinite_message(
        [&] { (void)core::stochastic_permutation_legalization(m, rng); });
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(0, 5)"), std::string::npos) << msg;

    auto t = adept::ag::Tensor::from_data(
        {2, 2}, {0.9f, static_cast<float>(bad), 0.1f, 0.9f});
    const std::string tmsg = nonfinite_message(
        [&] { (void)core::stochastic_permutation_legalization(t, rng); });
    EXPECT_NE(tmsg.find("non-finite"), std::string::npos) << tmsg;
    EXPECT_NE(tmsg.find("(0, 1)"), std::string::npos) << tmsg;
  }
}

}  // namespace
