#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"

namespace {

namespace ag = adept::ag;
using adept::Rng;
using ag::Tensor;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, double lo = -1.0,
                     double hi = 1.0, bool rg = true) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(lo, hi));
  return ag::make_tensor(std::move(data), std::move(shape), rg);
}

// ---- forward value checks ------------------------------------------------

TEST(Ops, AddSameShape) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {10, 20, 30, 40});
  Tensor c = ag::add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11);
  EXPECT_FLOAT_EQ(c.at(1, 1), 44);
}

TEST(Ops, BroadcastRowVector) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Tensor::from_data({1, 3}, {10, 20, 30});
  Tensor c = ag::add(a, r);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11);
  EXPECT_FLOAT_EQ(c.at(1, 2), 36);
  // reversed operand order
  Tensor d = ag::add(r, a);
  EXPECT_FLOAT_EQ(d.at(1, 2), 36);
}

TEST(Ops, BroadcastColVector) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::from_data({2, 1}, {100, 200});
  Tensor c = ag::add(a, col);
  EXPECT_FLOAT_EQ(c.at(0, 2), 103);
  EXPECT_FLOAT_EQ(c.at(1, 0), 204);
}

TEST(Ops, BroadcastScalar) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor s = Tensor::scalar(5.0f);
  EXPECT_FLOAT_EQ(ag::mul(a, s).data()[2], 15.0f);
  EXPECT_FLOAT_EQ(ag::mul(s, a).data()[2], 15.0f);
}

TEST(Ops, UnsupportedBroadcastThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_THROW(ag::add(a, b), std::invalid_argument);
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ag::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(ag::matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               std::invalid_argument);
}

TEST(Ops, TransposeValues) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ag::transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4);
}

TEST(Ops, ReshapePreservesData) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ag::reshape(a, {3, 2});
  EXPECT_FLOAT_EQ(r.at(2, 1), 6);
  EXPECT_THROW(ag::reshape(a, {4, 2}), std::invalid_argument);
}

TEST(Ops, Reductions) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ag::sum(a).item(), 21);
  EXPECT_FLOAT_EQ(ag::mean(a).item(), 3.5);
  Tensor rs = ag::row_sum(a);
  EXPECT_EQ(rs.dim(0), 2);
  EXPECT_FLOAT_EQ(rs.data()[0], 6);
  EXPECT_FLOAT_EQ(rs.data()[1], 15);
  Tensor cs = ag::col_sum(a);
  EXPECT_EQ(cs.dim(1), 3);
  EXPECT_FLOAT_EQ(cs.data()[0], 5);
  EXPECT_FLOAT_EQ(cs.data()[2], 9);
}

TEST(Ops, RowL2Norm) {
  Tensor a = Tensor::from_data({2, 2}, {3, 4, 0, 0});
  Tensor n = ag::row_l2_norm(a);
  EXPECT_NEAR(n.data()[0], 5.0f, 1e-4);
  EXPECT_NEAR(n.data()[1], 0.0f, 1e-4);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor a = random_tensor({4, 7}, rng, -5, 5);
  Tensor s = ag::softmax_rows(a);
  for (int i = 0; i < 4; ++i) {
    float acc = 0;
    for (int j = 0; j < 7; ++j) acc += s.at(i, j);
    EXPECT_NEAR(acc, 1.0f, 1e-5);
  }
}

TEST(Ops, LogSoftmaxMatchesSoftmax) {
  Rng rng(2);
  Tensor a = random_tensor({3, 5}, rng, -3, 3);
  Tensor s = ag::softmax_rows(a);
  Tensor ls = ag::log_softmax_rows(a);
  for (std::size_t i = 0; i < s.data().size(); ++i) {
    EXPECT_NEAR(std::log(s.data()[i]), ls.data()[i], 1e-4);
  }
}

TEST(Ops, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros({2, 4});
  Tensor loss = ag::cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5);
}

TEST(Ops, CrossEntropyGradientIsSoftmaxMinusOnehot) {
  Tensor logits = Tensor::from_data({1, 3}, {1, 2, 3}, true);
  Tensor loss = ag::cross_entropy(logits, {1});
  loss.backward();
  const float z = std::exp(1.f) + std::exp(2.f) + std::exp(3.f);
  EXPECT_NEAR(logits.grad()[0], std::exp(1.f) / z, 1e-5);
  EXPECT_NEAR(logits.grad()[1], std::exp(2.f) / z - 1.0f, 1e-5);
  EXPECT_NEAR(logits.grad()[2], std::exp(3.f) / z, 1e-5);
}

TEST(Ops, IndexAndConcat) {
  Tensor a = Tensor::from_data({3}, {5, 6, 7}, true);
  Tensor i1 = ag::index(a, 1);
  EXPECT_FLOAT_EQ(i1.item(), 6);
}

TEST(Ops, Slice2dValuesAndBounds) {
  Tensor a = Tensor::from_data({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor s = ag::slice2d(a, 1, 2, 0, 2);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 4);
  EXPECT_FLOAT_EQ(s.at(1, 1), 8);
  EXPECT_THROW(ag::slice2d(a, 2, 2, 0, 1), std::invalid_argument);
}

TEST(Ops, BlockMatrixAssembly) {
  // Tiles 0..3 of a [4,2,2] stack, filled with 1..4.
  Tensor stacked = Tensor::from_data({4, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2,
                                                 3, 3, 3, 3, 4, 4, 4, 4});
  Tensor b = ag::block_matrix(stacked, 2, 2);
  EXPECT_EQ(b.dim(0), 4);
  EXPECT_FLOAT_EQ(b.at(0, 0), 1);
  EXPECT_FLOAT_EQ(b.at(0, 3), 2);
  EXPECT_FLOAT_EQ(b.at(3, 0), 3);
  EXPECT_FLOAT_EQ(b.at(3, 3), 4);
}

// ---- gradcheck sweep over elementwise/matrix ops ---------------------------

struct OpCase {
  std::string name;
  std::function<Tensor(const std::vector<Tensor>&)> fn;
  std::vector<std::vector<std::int64_t>> shapes;
  double lo = -1.0, hi = 1.0;
};

class OpsGradcheck : public ::testing::TestWithParam<int> {};

// Keyed by a fixed id: the test parameter, which seeds the case's inputs
// and appears in its test name, so neither moves when a case goes.
std::map<int, OpCase> grad_cases() {
  std::map<int, OpCase> cases;
  auto scalar_of = [](Tensor t) { return ag::sum(t); };
  cases.emplace(0, OpCase{"add", [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::add(in[0], in[1]));
                          },
                          {{3, 4}, {3, 4}}});
  cases.emplace(1, OpCase{"sub_row_broadcast",
                          [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::sub(in[0], in[1]));
                          },
                          {{3, 4}, {1, 4}}});
  cases.emplace(2, OpCase{"mul_col_broadcast",
                          [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::mul(in[0], in[1]));
                          },
                          {{3, 4}, {3, 1}}});
  cases.emplace(3, OpCase{"div",
                          [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::div(in[0], in[1]));
                          },
                          {{2, 3}, {2, 3}},
                          0.5,
                          2.0});
  cases.emplace(8, OpCase{"sqrt",
                          [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::sqrt(in[0]));
                          },
                          {{4}},
                          0.5,
                          2.0});
  cases.emplace(9, OpCase{"square", [scalar_of](const std::vector<Tensor>& in) {
                            return scalar_of(ag::square(in[0]));
                          },
                          {{4}}});
  cases.emplace(12, OpCase{"reciprocal",
                           [scalar_of](const std::vector<Tensor>& in) {
                             return scalar_of(ag::reciprocal(in[0]));
                           },
                           {{4}},
                           0.5,
                           2.0});
  cases.emplace(13, OpCase{"matmul",
                           [scalar_of](const std::vector<Tensor>& in) {
                             return scalar_of(ag::matmul(in[0], in[1]));
                           },
                           {{3, 4}, {4, 2}}});
  cases.emplace(14, OpCase{"matmul_square_weighted",
                           [](const std::vector<Tensor>& in) {
                             return ag::sum(ag::square(ag::matmul(in[0], in[1])));
                           },
                           {{2, 3}, {3, 3}}});
  cases.emplace(15, OpCase{"transpose", [scalar_of](const std::vector<Tensor>& in) {
                             return scalar_of(ag::square(ag::transpose(in[0])));
                           },
                           {{2, 4}}});
  cases.emplace(16, OpCase{"softmax",
                           [](const std::vector<Tensor>& in) {
                             return ag::sum(ag::square(ag::softmax_rows(in[0])));
                           },
                           {{3, 4}},
                           -2.0,
                           2.0});
  cases.emplace(17, OpCase{"log_softmax",
                           [](const std::vector<Tensor>& in) {
                             return ag::sum(ag::square(ag::log_softmax_rows(in[0])));
                           },
                           {{3, 4}},
                           -2.0,
                           2.0});
  cases.emplace(18, OpCase{"row_l2_norm",
                           [scalar_of](const std::vector<Tensor>& in) {
                             return scalar_of(ag::row_l2_norm(in[0]));
                           },
                           {{3, 4}},
                           0.2,
                           1.0});
  cases.emplace(19, OpCase{"col_l2_norm",
                           [scalar_of](const std::vector<Tensor>& in) {
                             return scalar_of(ag::col_l2_norm(in[0]));
                           },
                           {{3, 4}},
                           0.2,
                           1.0});
  cases.emplace(21, OpCase{"slice2d",
                           [](const std::vector<Tensor>& in) {
                             return ag::sum(ag::square(ag::slice2d(in[0], 1, 2, 1, 2)));
                           },
                           {{4, 4}}});
  cases.emplace(22, OpCase{"block_matrix",
                           [](const std::vector<Tensor>& in) {
                             return ag::sum(ag::square(ag::block_matrix(in[0], 2, 2)));
                           },
                           {{4, 2, 2}}});
  cases.emplace(23, OpCase{"cross_entropy",
                           [](const std::vector<Tensor>& in) {
                             return ag::cross_entropy(in[0], {1, 0, 2});
                           },
                           {{3, 3}},
                           -2.0,
                           2.0});
  return cases;
}

std::vector<int> grad_case_ids() {
  std::vector<int> ids;
  for (const auto& entry : grad_cases()) ids.push_back(entry.first);
  return ids;
}

TEST_P(OpsGradcheck, AnalyticMatchesNumeric) {
  const OpCase c = grad_cases().at(GetParam());
  Rng rng(100 + GetParam());
  std::vector<Tensor> inputs;
  for (const auto& shape : c.shapes) inputs.push_back(random_tensor(shape, rng, c.lo, c.hi));
  const auto result = ag::gradcheck(c.fn, inputs);
  EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpsGradcheck, ::testing::ValuesIn(grad_case_ids()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return grad_cases().at(info.param).name;
                         });

}  // namespace
