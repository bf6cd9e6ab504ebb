#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "nn/serialize.h"
#include "tests/dense_optimizer_reference.h"
#include "tests/dense_softmax_reference.h"
#include "tests/scalar_forward_reference.h"
#include "tests/scalar_lstm_reference.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- matrix

TEST(MatrixTest, ZerosAndShape) {
  Matrix m = Matrix::Zeros(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.f);
}

TEST(MatrixTest, RandnStatistics) {
  Rng rng(5);
  Matrix m = Matrix::Randn(50, 50, 0.5f, &rng);
  double sum = 0, sq = 0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sq += m.data()[i] * m.data()[i];
  }
  double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sq / n), 0.5, 0.03);
}

// Glorot-uniform: every weight lies in [-a, a) with a = sqrt(6 / (fan_in +
// fan_out)), and the sample mean and variance are 0 and Xavier's
// 2 / (fan_in + fan_out), for the TPC-H actor's layer-0 Wx (120 x 2,798)
// and its head (2,797 x 30). The tolerances are about six standard errors.
TEST(MatrixTest, XavierIsGlorotUniform) {
  for (auto [rows, cols] : {std::pair{120, 2798}, std::pair{2797, 30}}) {
    Rng rng(17);
    Matrix m = Matrix::Xavier(rows, cols, &rng);
    const double a = std::sqrt(6.0f / static_cast<float>(rows + cols));
    const double var = 2.0 / (rows + cols);
    const double n = static_cast<double>(m.size());
    double sum = 0, sq = 0;
    for (size_t i = 0; i < m.size(); ++i) {
      const double w = m.data()[i];
      ASSERT_GE(w, -a) << i;
      ASSERT_LT(w, a) << i;
      sum += w;
      sq += w * w;
    }
    EXPECT_NEAR(sum / n, 0.0, 6 * std::sqrt(var / n)) << rows << "x" << cols;
    EXPECT_NEAR(sq / n / var, 1.0, 6 * 0.9 / std::sqrt(n))
        << rows << "x" << cols;
  }
}

// Each weight is (2u - 1) * a for u = (Next() >> 40) * 2^-24, rounded once
// to float: the 24-bit by 24-bit product is exact in double, so a double
// product rounded to float is the reference. The first 8 weights' bits are
// pinned as well, so a change to the mapping or to the stream fails here.
TEST(MatrixTest, XavierMapsOneDrawPerWeight) {
  Rng rng(1), ref(1);
  Matrix m = Matrix::Xavier(30, 2797, &rng);
  const float a = std::sqrt(6.0f / static_cast<float>(30 + 2797));
  for (size_t i = 0; i < m.size(); ++i) {
    const double u = static_cast<double>(ref.Next() >> 40) * 0x1.0p-24;
    const float want = static_cast<float>((2.0 * u - 1.0) * a);
    ASSERT_EQ(m.data()[i], want) << i;
  }
  EXPECT_EQ(rng.Next(), ref.Next());  // no draw beyond one per weight
  const uint32_t pinned[8] = {0x3c992a68u, 0x3af6cf1au, 0x3bdfbd82u,
                              0xbc240cf9u, 0x3c94d49bu, 0xbd068423u,
                              0xbd21e34au, 0xbc335d46u};
  for (int i = 0; i < 8; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &m.data()[i], sizeof(bits));
    EXPECT_EQ(bits, pinned[i]) << i << ": 0x" << std::hex << bits;
  }
}

TEST(MatrixTest, XavierWithoutRngLeavesZeros) {
  Matrix m = Matrix::Xavier(4, 3, /*rng=*/nullptr);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.f) << i;
}

TEST(MatrixTest, MatVec) {
  Matrix w(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  float x[3] = {1, 1, 1};
  float y[2];
  MatVec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 6.f);
  EXPECT_FLOAT_EQ(y[1], 15.f);
  MatMatAccum(ParamTensor("w", w, /*packed=*/true), x, y);
  EXPECT_FLOAT_EQ(y[0], 12.f);
}

TEST(MatrixTest, MatTVecAccum) {
  Matrix w(2, 3);
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  float dy[2] = {1, 1};
  float dx[3] = {0, 0, 0};
  MatTVecAccum(w, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], 5.f);   // 1+4
  EXPECT_FLOAT_EQ(dx[1], 7.f);   // 2+5
  EXPECT_FLOAT_EQ(dx[2], 9.f);   // 3+6
}

TEST(MatrixTest, OuterAccum) {
  Matrix dw = Matrix::Zeros(2, 2);
  float dy[2] = {1, 2};
  float x[2] = {3, 4};
  OuterAccum(&dw, dy, x);
  EXPECT_FLOAT_EQ(dw.at(0, 0), 3.f);
  EXPECT_FLOAT_EQ(dw.at(0, 1), 4.f);
  EXPECT_FLOAT_EQ(dw.at(1, 0), 6.f);
  EXPECT_FLOAT_EQ(dw.at(1, 1), 8.f);
}

TEST(SoftmaxTest, SumsToOne) {
  std::vector<float> v = {1.f, 2.f, 3.f};
  ASSERT_TRUE(TryCompactSoftmaxInPlace(v.data(), v.size()).ok());
  float sum = v[0] + v[1] + v[2];
  EXPECT_NEAR(sum, 1.f, 1e-6);
  EXPECT_GT(v[2], v[1]);
  EXPECT_GT(v[1], v[0]);
}

TEST(SoftmaxTest, StableWithLargeLogits) {
  std::vector<float> v = {1000.f, 1001.f};
  ASSERT_TRUE(TryCompactSoftmaxInPlace(v.data(), v.size()).ok());
  EXPECT_NEAR(v[0] + v[1], 1.f, 1e-6);
  EXPECT_FALSE(std::isnan(v[0]));
}

TEST(CompactSoftmaxTest, NormalizesTheMaskedSupport) {
  std::vector<float> v = {1.f, 2.f};  // the masked entries of {5, 1, 2, 3}
  ASSERT_TRUE(TryCompactSoftmaxInPlace(v.data(), v.size()).ok());
  EXPECT_NEAR(v[0] + v[1], 1.f, 1e-6);
  EXPECT_GT(v[1], v[0]);
}

TEST(CompactSoftmaxTest, AllNegInfRowIsStructuredError) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {-inf, -inf};
  Status st = TryCompactSoftmaxInPlace(v.data(), v.size());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(CompactSoftmaxTest, EmptySupportIsStructuredError) {
  float unused = 0.f;
  Status st = TryCompactSoftmaxInPlace(&unused, 0);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// The compact softmax is the dense masked softmax restricted to the mask:
// same values bitwise, and the dense form is exactly +0 everywhere else.
TEST(CompactSoftmaxTest, MatchesDenseMaskedReferenceBitwise) {
  Rng rng(101);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng.Next() % 9);
    std::vector<float> dense(n);
    std::vector<uint8_t> mask(n, 0);
    bool any = false;
    for (int i = 0; i < n; ++i) {
      dense[i] = static_cast<float>(rng.Normal(0.0, 3.0));
      mask[i] = static_cast<uint8_t>(rng.Next() % 2);
      any = any || mask[i];
    }
    if (!any) mask[0] = 1;
    std::vector<float> compact;
    for (int i = 0; i < n; ++i) {
      if (mask[i]) compact.push_back(dense[i]);
    }
    ASSERT_TRUE(testing_ref::DenseMaskedSoftmax(&dense, mask).ok());
    ASSERT_TRUE(TryCompactSoftmaxInPlace(compact.data(), compact.size()).ok());
    size_t k = 0;
    for (int i = 0; i < n; ++i) {
      if (!mask[i]) {
        EXPECT_EQ(std::signbit(dense[i]), false);
        EXPECT_EQ(dense[i], 0.f);
        continue;
      }
      EXPECT_EQ(dense[i], compact[k]) << "iter " << iter << " entry " << i;
      ++k;
    }
  }
}

// ------------------------------------------------------- forward panel

// Differential oracle for MatMat: random shapes, every output compared
// bitwise against the scalar one-chain-per-row loop over the same vector.
// Any reassociation or contraction in the panel kernel fails this with
// exact-equality diffs.
TEST(MatMatTest, MatchesMatVecBitwiseAcrossRaggedShapes) {
  Rng rng(4242);
  const int rows_set[] = {1, 3, 7, 29, 120};
  const int cols_set[] = {1, 5, 13, 30, 61};
  for (int rows : rows_set) {
    for (int cols : cols_set) {
      Matrix w = Matrix::Randn(rows, cols, 1.f, &rng);
      std::vector<float> x(cols);
      for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 2.0));
      std::vector<float> y(rows, -7.f);
      MatMat(ParamTensor("w", w, /*packed=*/true), x.data(), y.data());
      std::vector<float> y_ref(rows);
      testing_ref::ScalarMatVec(w, x.data(), y_ref.data());
      for (int i = 0; i < rows; ++i) {
        ASSERT_EQ(y_ref[i], y[i])
            << "r=" << rows << " c=" << cols << " row=" << i;
      }
    }
  }
}

TEST(MatMatTest, AccumMatchesMatVecAccumBitwise) {
  Rng rng(777);
  const int rows = 31, cols = 17;
  Matrix w = Matrix::Randn(rows, cols, 1.f, &rng);
  std::vector<float> x(cols);
  for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> y(rows);
  for (float& v : y) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> y_ref = y;
  MatMatAccum(ParamTensor("w", w, /*packed=*/true), x.data(), y.data());
  testing_ref::ScalarMatVecAccum(w, x.data(), y_ref.data());
  for (int i = 0; i < rows; ++i) ASSERT_EQ(y_ref[i], y[i]) << "row=" << i;
}

// The row-major forward kernels run tiles of rows (8, then 4, 2, 1) with
// one accumulator per row, and the forward panel tiles of output rows (16,
// 8, 4, 2, 1). Every row-count split of both ladders, odd column counts,
// gathered rows, and signed zeros and subnormals in both operands are
// compared byte for byte against the one-chain scalar loop: a reassociated
// row sum or a dropped tail tile fails here.

// Normal values with about one entry in six replaced by a signed zero or
// a subnormal.
void FillWithSpecials(Rng* rng, float* v, size_t n) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.f, -0.f, 1e-40f, -1e-40f, 3e-39f, -3e-39f, tiny};
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng->Normal(0.0, 1.5));
    if (rng->Next() % 6 == 0) v[i] = specials[rng->Next() % 7];
  }
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(RowTileTest, RowTiledForwardMatchesScalarReference) {
  Rng rng(2024);
  std::vector<int> rows_set;
  for (int r = 1; r <= 17; ++r) rows_set.push_back(r);
  rows_set.push_back(120);
  rows_set.push_back(121);
  const int cols_set[] = {1, 7, 30, 33};
  for (int rows : rows_set) {
    for (int cols : cols_set) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " cols=" + std::to_string(cols));
      Linear lin(cols, rows, &rng);
      for (ParamTensor* p : lin.Params()) {
        p->UpdateValue(
            [&](Matrix* v) { FillWithSpecials(&rng, v->data(), v->size()); });
      }
      const Matrix& w = lin.Params()[0]->value();
      const Matrix& b = lin.Params()[1]->value();
      std::vector<float> x(cols);
      FillWithSpecials(&rng, x.data(), x.size());

      std::vector<float> y(rows, -7.f), y_ref(rows, -7.f);
      MatVec(w, x.data(), y.data());
      testing_ref::ScalarMatVec(w, x.data(), y_ref.data());
      ASSERT_TRUE(SameBytes(y, y_ref)) << "MatVec";

      // The forward panel over the same tile-edge splits.
      FillWithSpecials(&rng, y.data(), y.size());
      y_ref = y;
      MatMatAccum(ParamTensor("w", w, /*packed=*/true), x.data(), y.data());
      testing_ref::ScalarMatVecAccum(w, x.data(), y_ref.data());
      ASSERT_TRUE(SameBytes(y, y_ref)) << "MatMatAccum";

      // Unsorted gathered rows with repeats, up to 17 more than the layer
      // has, so the gathered list splits at every tile edge too.
      const int nrows = 1 + static_cast<int>(rng.Next() % (rows + 17));
      std::vector<int> picked(nrows);
      for (int& i : picked) i = static_cast<int>(rng.Next() % rows);
      std::vector<float> yr(nrows, -7.f), yr_ref(nrows, -7.f);
      lin.ForwardRows(x.data(), picked.data(), nrows, yr.data());
      testing_ref::ScalarForwardRows(w, b.data(), x.data(), picked.data(),
                                     nrows, yr_ref.data());
      ASSERT_TRUE(SameBytes(yr, yr_ref)) << "ForwardRows nrows=" << nrows;
    }
  }
}

// The product of a packed tensor runs its forward panel: at the LSTM gate
// shape 4H x H, with signed zeros, subnormals and infinities in W, x and
// y, MatMat and MatMatAccum are byte for byte the one-chain scalar loops. H = 33 spans two panel chunks (132 rows).
TEST(PanelTest, PackedOneLaneProductMatchesScalarReference) {
  Rng rng(2025);
  const float inf = std::numeric_limits<float>::infinity();
  auto fill = [&rng, inf](float* v, size_t n) {
    FillWithSpecials(&rng, v, n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Next() % 40 == 0) v[i] = rng.Next() % 2 == 0 ? inf : -inf;
    }
  };
  for (int h : {1, 7, 30, 33}) {
    SCOPED_TRACE("H=" + std::to_string(h));
    Matrix m(4 * h, h);
    fill(m.data(), m.size());
    const ParamTensor w("wh", m, /*packed=*/true);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<float> x(h);
      fill(x.data(), x.size());
      std::vector<float> y(4 * h, -7.f), y_ref(4 * h, -7.f);
      MatMat(w, x.data(), y.data());
      testing_ref::ScalarMatVec(m, x.data(), y_ref.data());
      ASSERT_TRUE(SameBytes(y, y_ref)) << "MatMat trial " << trial;

      fill(y.data(), y.size());
      y_ref = y;
      MatMatAccum(w, x.data(), y.data());
      testing_ref::ScalarMatVecAccum(m, x.data(), y_ref.data());
      ASSERT_TRUE(SameBytes(y, y_ref)) << "MatMatAccum trial " << trial;
    }
  }
}

TEST(LinearRowsTest, ForwardRowsMatchesForwardBitwise) {
  Rng rng(55);
  Linear lin(13, 9, &rng);
  std::vector<float> x(13);
  for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> y(9);
  lin.Forward(x.data(), y.data());
  const std::vector<int> rows = {0, 3, 4, 8};
  std::vector<float> y_rows(rows.size());
  lin.ForwardRows(x.data(), rows.data(), static_cast<int>(rows.size()),
                  y_rows.data());
  for (size_t k = 0; k < rows.size(); ++k) ASSERT_EQ(y_rows[k], y[rows[k]]);
}

// The row-sparse backward must reproduce a dense Backward over a dy that
// is zero off `rows` — including a selected row whose gradient is exactly
// zero (and -0) — for the weight, bias and input gradients, bitwise.
TEST(LinearRowsTest, BackwardRowsMatchesDenseBackwardBitwise) {
  Rng rng(56);
  Linear dense(13, 9, &rng);
  Linear sparse = dense;
  const std::vector<int> rows = {1, 2, 5, 7, 8};
  for (int step = 0; step < 4; ++step) {
    std::vector<float> x(13);
    for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
    std::vector<float> dy_rows(rows.size());
    for (float& v : dy_rows) v = static_cast<float>(rng.Normal(0.0, 1.0));
    dy_rows[1] = 0.f;
    dy_rows[3] = -0.f;
    std::vector<float> dy(9, 0.f);
    for (size_t k = 0; k < rows.size(); ++k) dy[rows[k]] = dy_rows[k];
    std::vector<float> dx_dense(13, 0.25f), dx_sparse(13, 0.25f);
    dense.Backward(x.data(), dy.data(), dx_dense.data());
    sparse.BackwardRows(x.data(), rows.data(), static_cast<int>(rows.size()),
                        dy_rows.data(), dx_sparse.data());
    for (int j = 0; j < 13; ++j) ASSERT_EQ(dx_dense[j], dx_sparse[j]);
  }
  auto pd = dense.Params();
  auto ps = sparse.Params();
  for (size_t t = 0; t < pd.size(); ++t) {
    for (size_t i = 0; i < pd[t]->grad().size(); ++i) {
      const float a = pd[t]->grad().data()[i], b = ps[t]->grad().data()[i];
      ASSERT_EQ(a, b) << pd[t]->name << "[" << i << "]";
      ASSERT_EQ(std::signbit(a), std::signbit(b));
    }
  }
}

// ------------------------------------------------------- lane step

bool SameBytes(const std::vector<float>& a, const float* b) {
  return a.empty() || std::memcmp(a.data(), b, a.size() * sizeof(float)) == 0;
}

bool SameState(const LstmStack::State& a, const LstmStack::State& b) {
  for (size_t l = 0; l < a.h.size(); ++l) {
    if (!SameBytes(a.h[l], b.h[l]) || !SameBytes(a.c[l], b.c[l])) return false;
  }
  return true;
}

// Everything Backward reads except the input encoding, which the callers
// compare in their own terms.
bool SameActivations(const LstmStack::StepCache& a,
                     const LstmStack::StepCache& b) {
  if (a.layers.size() != b.layers.size() ||
      a.dropout_mask.size() != b.dropout_mask.size()) {
    return false;
  }
  for (size_t l = 0; l < a.dropout_mask.size(); ++l) {
    if (!SameBytes(a.dropout_mask[l], b.dropout_mask[l])) return false;
  }
  for (size_t l = 0; l < a.layers.size(); ++l) {
    const LstmCell::Cache& x = a.layers[l];
    const LstmCell::Cache& y = b.layers[l];
    if (!SameBytes(x.h_prev, y.h_prev) || !SameBytes(x.c_prev, y.c_prev) ||
        !SameBytes(x.gates, y.gates) || !SameBytes(x.c, y.c) ||
        !SameBytes(x.tanh_c, y.tanh_c) || !SameBytes(x.h, y.h)) {
      return false;
    }
    if (l > 0 && (x.onehot != -1 || y.onehot != -1 || !SameBytes(x.x, y.x))) {
      return false;
    }
  }
  return true;
}

bool SameGradients(const std::vector<ParamTensor*>& a,
                   const std::vector<ParamTensor*>& b) {
  for (size_t t = 0; t < a.size(); ++t) {
    const Matrix& x = a[t]->grad();
    const Matrix& y = b[t]->grad();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Inputs for the lane-step tests: tails and recurrent states with ±0 and
// mixed signs, and Wx entries of -0 in a token column.
std::vector<float> ZeroHeavyVector(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    switch (rng->Next() % 4) {
      case 0: x = 0.f; break;
      case 1: x = -0.f; break;
      default: x = static_cast<float>(rng->Normal(0.0, 1.5)); break;
    }
  }
  return v;
}

// The one lane step against its scalar reference
// (tests/scalar_lstm_reference.h). With and without a two-feature tail,
// with BPTT caches on and off and with and without dropout (drawn from the
// lane's stream; without a cache the masks are applied, not kept), the
// state, top hidden state, cache and BPTT gradients match the reference
// byte for byte.
TEST(LstmLaneStepTest, MatchesScalarReferenceBitwise) {
  const int kTokens = 9, kHidden = 5, kLayers = 2, kSteps = 5;
  const float kDropout = 0.3f;
  for (int tail_dim : {0, 2}) {
    for (int mode = 0; mode < 4; ++mode) {
      const bool cached = mode & 1;
      const bool dropout = mode & 2;
      SCOPED_TRACE("tail=" + std::to_string(tail_dim) + " cached=" +
                   std::to_string(cached) + " dropout=" +
                   std::to_string(dropout));
      Rng init(700 + tail_dim);
      LstmStack stack(kTokens + tail_dim, kHidden, kLayers, kDropout, &init,
                      tail_dim);
      stack.Params()[0]->UpdateValue([](Matrix* wx0) {
        for (int k = 0; k < wx0->rows(); k += 2) wx0->at(k, 3) = -0.f;
      });
      LstmStack ref = stack;
      Rng data(31 + tail_dim);

      LstmStack::State st = stack.InitialState();
      for (int l = 0; l < kLayers; ++l) {
        st.h[l] = ZeroHeavyVector(&data, kHidden);
        st.c[l] = ZeroHeavyVector(&data, kHidden);
      }
      LstmStack::State ref_st = st;
      Rng drop(1000), ref_drop(1000);
      std::vector<LstmStack::StepCache> caches, ref_caches;
      LstmStack::Workspace ws;
      for (int t = 0; t < kSteps; ++t) {
        // Step 0 feeds the -0 column.
        const int token = t == 0 ? 3 : static_cast<int>(data.Next() % kTokens);
        const std::vector<float> tail = ZeroHeavyVector(&data, tail_dim);
        LstmStack::Lane lane;
        lane.token = token;
        lane.tail = tail.data();
        lane.state = &st;
        lane.dropout = dropout ? &drop : nullptr;
        if (cached) {
          caches.emplace_back();
          ref_caches.emplace_back();
          lane.cache = &caches.back();
        }
        const float* top = stack.Step(lane, &ws);
        const std::vector<float> ref_top = testing_ref::ScalarLstmStep(
            std::as_const(ref).Params(), kDropout, token, tail, &ref_st,
            cached ? &ref_caches.back() : nullptr,
            dropout ? &ref_drop : nullptr);
        const std::string at = "step " + std::to_string(t);
        ASSERT_TRUE(SameState(st, ref_st)) << at;
        ASSERT_TRUE(SameBytes(ref_top, top)) << at;
        if (!cached) continue;
        const LstmStack::StepCache& c = caches.back();
        const LstmStack::StepCache& rc = ref_caches.back();
        ASSERT_TRUE(SameActivations(c, rc)) << at;
        // Layer 0: the token and its tail; the reference keeps the whole
        // dense input when there is a tail.
        ASSERT_EQ(c.layers[0].onehot, token) << at;
        ASSERT_TRUE(SameBytes(c.layers[0].x, tail)) << at;
        if (tail_dim == 0) {
          ASSERT_EQ(rc.layers[0].onehot, token) << at;
        } else {
          std::vector<float> dense(kTokens + tail_dim, 0.f);
          dense[token] = 1.f;
          std::copy(tail.begin(), tail.end(), dense.begin() + kTokens);
          ASSERT_EQ(rc.layers[0].onehot, -1) << at;
          ASSERT_TRUE(SameBytes(rc.layers[0].x, dense)) << at;
        }
      }
      if (!cached) continue;
      std::vector<std::vector<float>> dtop(kSteps);
      for (auto& d : dtop) d = ZeroHeavyVector(&data, kHidden);
      stack.Backward(caches, dtop);
      ref.Backward(ref_caches, dtop);
      ASSERT_TRUE(SameGradients(stack.Params(), ref.Params()));
    }
  }
}

TEST(ClipGradNormTest, RescalesAboveThreshold) {
  ParamTensor p("p", Matrix::Zeros(1, 4));
  for (int i = 0; i < 4; ++i) p.mutable_grad()->data()[i] = 3.f;  // norm 6
  double norm = ClipGradNorm({&p}, 3.0);
  EXPECT_NEAR(norm, 6.0, 1e-5);
  double after = 0;
  for (int i = 0; i < 4; ++i) after += p.grad().data()[i] * p.grad().data()[i];
  EXPECT_NEAR(std::sqrt(after), 3.0, 1e-5);
}

TEST(ClipGradNormTest, NoRescaleBelowThreshold) {
  ParamTensor p("p", Matrix::Zeros(1, 2));
  p.mutable_grad()->data()[0] = 1.f;
  ClipGradNorm({&p}, 10.0);
  EXPECT_FLOAT_EQ(p.grad().data()[0], 1.f);
}

// ------------------------------------------------- live-column optimizer

// Bitwise equality (signed zeros included) of two equally sized matrices.
void ExpectSameBits(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST(ParamTensorTest, ColumnWritesGoLiveAndSpansCoverExactlyThem) {
  Rng rng(71);
  const int kRows = 3, kCols = 20;
  ParamTensor p("p", Matrix::Zeros(kRows, kCols));
  std::vector<int> writes(kCols, 0);
  const float d[kRows] = {1.f, 2.f, 3.f};
  for (int step = 0; step < 40; ++step) {
    const int c = static_cast<int>(rng.Uniform(kCols));
    p.AccumulateColumn(c, d);
    ++writes[c];
    std::vector<size_t> visited;
    size_t prev_end = p.grad().size() + 1;
    p.ForEachLiveSpan([&](size_t k, size_t n, float* g) {
      EXPECT_EQ(g, p.grad().data() + k);
      EXPECT_NE(k, prev_end) << "adjacent spans were not merged";
      for (size_t i = 0; i < n; ++i) visited.push_back(k + i);
      prev_end = k + n;
    });
    std::vector<size_t> expected;
    for (int r = 0; r < kRows; ++r) {
      for (int j = 0; j < kCols; ++j) {
        ASSERT_EQ(p.IsLive(j), writes[j] > 0) << "column " << j;
        if (writes[j] > 0) expected.push_back(static_cast<size_t>(r) * kCols + j);
        ASSERT_EQ(p.grad().at(r, j), writes[j] * d[r]);
      }
    }
    ASSERT_EQ(visited, expected) << "step " << step;
  }
  // A dense writer makes every column live: one span over the tensor.
  p.mutable_grad();
  int spans = 0;
  p.ForEachLiveSpan([&](size_t k, size_t n, float*) {
    ++spans;
    EXPECT_EQ(k, 0u);
    EXPECT_EQ(n, p.grad().size());
  });
  EXPECT_EQ(spans, 1);
}

// A tensor allocates its gradient on the first write, not at construction,
// so one that is only ever read (a loaded model's) never holds one. The
// first write must give the bits a constructor-allocated +0 gradient gave.
TEST(ParamTensorTest, GradientIsAllocatedOnItsFirstWrite) {
  Rng rng(72);
  const float d[3] = {0.3f, -1.7f, 2.9f};
  constexpr float kScale = 0.37f;
  ParamTensor p("p", Matrix::Randn(3, 5, 1.f, &rng));
  EXPECT_EQ(p.grad().size(), 0u);
  EXPECT_FALSE(p.IsLive(2));
  int spans = 0;
  p.ForEachLiveSpan([&](size_t, size_t, float*) { ++spans; });
  EXPECT_EQ(spans, 0);

  p.AccumulateColumn(2, d, kScale);
  ASSERT_EQ(p.grad().rows(), 3);
  ASSERT_EQ(p.grad().cols(), 5);
  Matrix want = Matrix::Zeros(3, 5);
  for (int r = 0; r < 3; ++r) want.at(r, 2) += d[r] * kScale;
  ExpectSameBits(p.grad(), want, "first column write");

  // The whole-gradient writer hands out a value-shaped +0 gradient, and
  // one freed by ReleaseGradient comes back the same way.
  ParamTensor q("q", Matrix::Randn(2, 4, 1.f, &rng));
  EXPECT_EQ(q.grad().size(), 0u);
  ExpectSameBits(*q.mutable_grad(), Matrix::Zeros(2, 4), "first dense write");
  q.mutable_grad()->at(1, 3) = 5.f;
  q.ReleaseGradient();
  EXPECT_EQ(q.grad().size(), 0u);
  ExpectSameBits(*q.mutable_grad(), Matrix::Zeros(2, 4), "write after release");
}

// Random column-sparse gradient streams through ClipGradNorm + Adam::Step
// must reproduce the every-entry reference bit for bit: values, moments and
// the pre-clip norm, with clipping both active and inactive, columns going
// live late, +-0 gradients, a tensor that turns dense midway and one that is
// never written. Non-live columns must keep g = m = v = +0 throughout.
TEST(LiveColumnOptimizerTest, MatchesDenseReferenceBitwise) {
  Rng init(72);
  struct Shape {
    const char* name;
    int rows, cols;
  };
  const std::vector<Shape> shapes = {
      {"onehot", 6, 40}, {"turns_dense", 4, 9}, {"bias", 5, 1}, {"never", 3, 5}};
  std::vector<ParamTensor> live, ref;
  for (const Shape& s : shapes) {
    Matrix v = Matrix::Randn(s.rows, s.cols, 0.5f, &init);
    live.emplace_back(s.name, v);
    ref.emplace_back(s.name, v);
  }
  std::vector<ParamTensor*> lp, rp;
  for (size_t i = 0; i < live.size(); ++i) {
    lp.push_back(&live[i]);
    rp.push_back(&ref[i]);
  }
  Adam opt(lp, 0.01f);
  testing_ref::DenseAdam ref_opt(rp, 0.01f);

  Rng rng(73);
  auto grad_value = [&rng]() {
    const uint64_t kind = rng.Uniform(8);
    if (kind == 0) return 0.f;
    if (kind == 1) return -0.f;
    return static_cast<float>(rng.Normal(0.0, 1.0));
  };
  // One column's gradient: written through the live tensor's column writer
  // and densely into the reference.
  auto write_column = [&](size_t t, int c) {
    std::vector<float> d(live[t].value().rows());
    for (float& x : d) x = grad_value();
    live[t].AccumulateColumn(c, d.data());
    for (int r = 0; r < ref[t].value().rows(); ++r) {
      ref[t].mutable_grad()->at(r, c) += d[r];
    }
  };
  auto write_dense = [&](size_t t) {
    Matrix* lg = live[t].mutable_grad();
    Matrix* rg = ref[t].mutable_grad();
    for (size_t k = 0; k < lg->size(); ++k) {
      const float x = grad_value();
      lg->data()[k] += x;
      rg->data()[k] += x;
    }
  };

  int clipped = 0, unclipped = 0;
  for (int step = 0; step < 30; ++step) {
    // "onehot": a few columns per step from a pool that widens over time,
    // so some columns first go live late; repeats accumulate.
    const int pool = std::min(40, 3 + step);
    for (int w = 0; w < 3; ++w) {
      write_column(0, static_cast<int>(rng.Uniform(pool)));
    }
    // "turns_dense": column writes until step 12, dense writes after.
    if (step < 12) {
      write_column(1, static_cast<int>(rng.Uniform(5)));
    } else {
      write_dense(1);
    }
    write_dense(2);  // "bias"; "never" gets no gradient at all

    // Alternate a tight bound (clipping active) with a loose one.
    const double max_norm = step % 3 == 0 ? 1e-3 : 1e6;
    const double norm = ClipGradNorm(lp, max_norm);
    const double ref_norm = testing_ref::DenseClipGradNorm(rp, max_norm);
    ASSERT_EQ(std::memcmp(&norm, &ref_norm, sizeof(norm)), 0)
        << "step " << step << ": " << norm << " vs " << ref_norm;
    (norm > max_norm ? clipped : unclipped) += 1;
    for (size_t t = 0; t < live.size(); ++t) {
      ExpectSameBits(testing_ref::GradOrZeros(live[t]), ref[t].grad(),
                     live[t].name + " clipped grad");
    }

    opt.Step();
    ref_opt.Step();
    for (size_t t = 0; t < live.size(); ++t) {
      const std::string at = live[t].name + " step " + std::to_string(step);
      ExpectSameBits(live[t].value(), ref[t].value(), at + " value");
      ExpectSameBits(opt.first_moments()[t], ref_opt.first_moments()[t],
                     at + " m");
      ExpectSameBits(opt.second_moments()[t], ref_opt.second_moments()[t],
                     at + " v");
      const std::string bad = testing_ref::NonLiveViolation(
          live[t], opt.first_moments()[t], opt.second_moments()[t]);
      ASSERT_TRUE(bad.empty()) << at << ": " << bad;
    }
  }
  EXPECT_GT(clipped, 0);
  EXPECT_GT(unclipped, 0);
  // Late columns did go live, and some never did.
  int onehot_live = 0;
  for (int c = 0; c < 40; ++c) onehot_live += live[0].IsLive(c) ? 1 : 0;
  EXPECT_GT(onehot_live, 10);
  EXPECT_LT(onehot_live, 40);
  for (int c = 0; c < 9; ++c) EXPECT_TRUE(live[1].IsLive(c));
  for (int c = 0; c < 5; ++c) EXPECT_FALSE(live[3].IsLive(c));
  // The optimizer tail never allocates a gradient nobody wrote.
  EXPECT_EQ(live[3].grad().size(), 0u);
}

// Scalar forms of the tiled backward kernels.
void ScalarOuterAccum(Matrix* dw, const float* dy, const float* x) {
  for (int i = 0; i < dw->rows(); ++i) {
    if (dy[i] == 0.f) continue;
    for (int j = 0; j < dw->cols(); ++j) dw->at(i, j) += dy[i] * x[j];
  }
}

void ScalarMatTVecAccum(const Matrix& w, const float* dy, float* dx) {
  for (int i = 0; i < w.rows(); ++i) {
    if (dy[i] == 0.f) continue;
    for (int j = 0; j < w.cols(); ++j) dx[j] += w.at(i, j) * dy[i];
  }
}

// Output gradients with exact zeros of both signs among normal values.
std::vector<float> MixedGradients(int n, Rng* rng) {
  std::vector<float> dy(n);
  for (int i = 0; i < n; ++i) {
    dy[i] = i % 5 == 1 ? 0.f
            : i % 5 == 3 ? -0.f
                         : static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return dy;
}

TEST(TiledKernelsTest, MatchScalarReferencesAcrossWidths) {
  Rng rng(74);
  for (const int width : {1, 7, 30, 33}) {
    const int rows = 13;
    Matrix w = Matrix::Randn(rows, width, 1.f, &rng);
    Matrix dw = Matrix::Randn(rows, width, 1.f, &rng);
    Matrix dw_ref = dw;
    std::vector<float> x(width);
    for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
    std::vector<float> dx(width, 0.5f), dx_ref(width, 0.5f);
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<float> dy = MixedGradients(rows, &rng);
      OuterAccum(&dw, dy.data(), x.data());
      ScalarOuterAccum(&dw_ref, dy.data(), x.data());
      MatTVecAccum(w, dy.data(), dx.data());
      ScalarMatTVecAccum(w, dy.data(), dx_ref.data());
    }
    ExpectSameBits(dw, dw_ref, "OuterAccum width " + std::to_string(width));
    ASSERT_EQ(std::memcmp(dx.data(), dx_ref.data(), width * sizeof(float)), 0)
        << "MatTVecAccum width " << width;

    // Linear::BackwardRows against its scalar row loop.
    Linear lin(width, 11, &rng);
    const std::vector<int> sel = {0, 2, 3, 7, 10};
    const ParamTensor& lw = *lin.Params()[0];
    const ParamTensor& lb = *lin.Params()[1];
    Matrix gw_ref = Matrix::Zeros(11, width);
    std::vector<float> gb_ref(11, 0.f);
    std::vector<float> ldx(width, 0.25f), ldx_ref(width, 0.25f);
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<float> dy = MixedGradients(static_cast<int>(sel.size()), &rng);
      lin.BackwardRows(x.data(), sel.data(), static_cast<int>(sel.size()),
                       dy.data(), ldx.data());
      for (size_t k = 0; k < sel.size(); ++k) {
        const int i = sel[k];
        gb_ref[i] += dy[k];
        if (dy[k] == 0.f) continue;
        for (int j = 0; j < width; ++j) gw_ref.at(i, j) += dy[k] * x[j];
        for (int j = 0; j < width; ++j) {
          ldx_ref[j] += lw.value().at(i, j) * dy[k];
        }
      }
    }
    ExpectSameBits(lw.grad(), gw_ref, "BackwardRows dW width " + std::to_string(width));
    ASSERT_EQ(std::memcmp(lb.grad().data(), gb_ref.data(), 11 * sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(ldx.data(), ldx_ref.data(), width * sizeof(float)), 0)
        << "BackwardRows dx width " << width;
  }
}

// Every writer of a packed tensor's value refreshes its forward panel: after
// construction, an Adam step, ParamSnapshot::Restore and LoadParams, a
// one-lane step of a 2-layer, 30-unit stack (packed Wh in both layers and
// Wx in layer 1) is byte for byte the scalar reference over the values.
TEST(PanelTest, StepMatchesScalarReferenceAfterEveryWriter) {
  constexpr int kTokens = 11, kHidden = 30, kLayers = 2;
  auto expect_reference_step = [](const LstmStack& stack,
                                  const std::string& at) {
    LstmStack::State st = stack.InitialState();
    LstmStack::State ref_st = st;
    LstmStack::Workspace ws;
    for (int t = 0; t < 4; ++t) {
      LstmStack::Lane lane;
      lane.token = (3 * t + 1) % kTokens;
      lane.state = &st;
      const float* top = stack.Step(lane, &ws);
      const std::vector<float> ref_top = testing_ref::ScalarLstmStep(
          stack.Params(), 0.f, lane.token, {}, &ref_st, nullptr, nullptr);
      ASSERT_TRUE(SameBytes(ref_top, top)) << at << " step " << t;
      ASSERT_TRUE(SameState(st, ref_st)) << at << " step " << t;
    }
  };
  Rng init(41);
  LstmStack stack(kTokens, kHidden, kLayers, /*dropout=*/0.f, &init);
  expect_reference_step(stack, "construction");

  std::vector<ParamTensor*> params = stack.Params();
  ParamSnapshot saved;
  saved.Save(params);
  Adam opt(params, 0.05f);
  for (int epoch = 0; epoch < 2; ++epoch) {
    LstmStack::State st = stack.InitialState();
    LstmStack::Workspace ws;
    std::vector<LstmStack::StepCache> caches(5);
    std::vector<std::vector<float>> dtop(caches.size(),
                                         std::vector<float>(kHidden, 0.5f));
    for (size_t t = 0; t < caches.size(); ++t) {
      LstmStack::Lane lane;
      lane.token = static_cast<int>(t * 2 + epoch) % kTokens;
      lane.state = &st;
      lane.cache = &caches[t];
      stack.Step(lane, &ws);
    }
    stack.Backward(caches, dtop);
    opt.Step();
    expect_reference_step(stack, "Adam step " + std::to_string(epoch));
  }

  // Restore must bring the panels back with the values: a stale panel
  // would still hold the trained weights.
  ASSERT_TRUE(saved.Restore(params));
  expect_reference_step(stack, "Restore");

  const std::string path =
      std::filesystem::temp_directory_path() / "lsg_panel_test.bin";
  ASSERT_TRUE(SaveParams(params, path).ok());
  Rng other_init(42);
  LstmStack loaded(kTokens, kHidden, kLayers, /*dropout=*/0.f, &other_init);
  ASSERT_TRUE(LoadParams(loaded.Params(), path).ok());
  std::remove(path.c_str());
  expect_reference_step(loaded, "LoadParams");
}

// ------------------------------------------------- numerical gradients

/// Central-difference gradient of `loss` w.r.t. one input entry.
template <typename LossFn>
double NumericalGrad(float* entry, double eps, const LossFn& loss) {
  float orig = *entry;
  *entry = static_cast<float>(orig + eps);
  double up = loss();
  *entry = static_cast<float>(orig - eps);
  double down = loss();
  *entry = orig;
  return (up - down) / (2.0 * eps);
}

/// The same w.r.t. entry i of a parameter, written through UpdateValue.
template <typename LossFn>
double NumericalGrad(ParamTensor* p, size_t i, double eps,
                     const LossFn& loss) {
  const float orig = p->value().data()[i];
  auto set = [p, i](float v) {
    p->UpdateValue([i, v](Matrix* m) { m->data()[i] = v; });
  };
  set(static_cast<float>(orig + eps));
  double up = loss();
  set(static_cast<float>(orig - eps));
  double down = loss();
  set(orig);
  return (up - down) / (2.0 * eps);
}

TEST(LinearGradientTest, MatchesNumerical) {
  Rng rng(11);
  Linear lin(4, 3, &rng);
  std::vector<float> x = {0.5f, -1.0f, 0.25f, 2.0f};
  std::vector<float> c = {1.0f, -2.0f, 0.5f};  // loss = dot(y, c)

  auto loss = [&]() {
    float y[3];
    lin.Forward(x.data(), y);
    return static_cast<double>(y[0] * c[0] + y[1] * c[1] + y[2] * c[2]);
  };

  std::vector<float> dx(4, 0.f);
  lin.Backward(x.data(), c.data(), dx.data());

  auto params = lin.Params();
  for (ParamTensor* p : params) {
    for (size_t i = 0; i < p->value().size(); ++i) {
      double num = NumericalGrad(p, i, 1e-3, loss);
      EXPECT_NEAR(p->grad().data()[i], num, 5e-3)
          << p->name << "[" << i << "]";
    }
  }
  // Input gradient = W^T c; check numerically too.
  for (int i = 0; i < 4; ++i) {
    double num = NumericalGrad(&x[i], 1e-3, loss);
    EXPECT_NEAR(dx[i], num, 5e-3);
  }
}

// One cell step over the dense input x (no one-hot part).
void DenseForward(const LstmCell& cell, const std::vector<float>& x,
                  const std::vector<float>& h0, const std::vector<float>& c0,
                  LstmCell::Cache* cache) {
  cache->x = x;
  cache->h_prev = h0;
  cache->c_prev = c0;
  cell.Forward(/*onehot=*/-1, x.data(), static_cast<int>(x.size()),
               h0.data(), c0.data(), cache);
}

// One lane of LstmStack::Step without a feature tail; returns the top h.
const float* StepToken(const LstmStack& stack, int token,
                       LstmStack::State* st, LstmStack::StepCache* cache,
                       Rng* dropout) {
  LstmStack::Workspace ws;
  LstmStack::Lane lane;
  lane.token = token;
  lane.state = st;
  lane.cache = cache;
  lane.dropout = dropout;
  stack.Step(lane, &ws);
  return st->h.back().data();
}

TEST(LstmCellGradientTest, MatchesNumerical) {
  Rng rng(13);
  const int in = 3, hid = 4;
  LstmCell cell(in, hid, /*onehot_input=*/false, &rng);
  std::vector<float> x = {0.3f, -0.7f, 1.1f};
  std::vector<float> h0 = {0.1f, -0.2f, 0.05f, 0.4f};
  std::vector<float> c0 = {0.2f, 0.1f, -0.3f, 0.0f};
  std::vector<float> ch = {1.f, -1.f, 0.5f, 2.f};
  std::vector<float> cc = {0.3f, 0.7f, -0.2f, 1.f};

  auto loss = [&]() {
    LstmCell::Cache cache;
    DenseForward(cell, x, h0, c0, &cache);
    double l = 0;
    for (int k = 0; k < hid; ++k) {
      l += cache.h[k] * ch[k] + cache.c[k] * cc[k];
    }
    return l;
  };

  LstmCell::Cache cache;
  DenseForward(cell, x, h0, c0, &cache);
  std::vector<float> dh_prev(hid), dc_prev(hid), dx(in, 0.f);
  cell.Backward(cache, ch.data(), cc.data(), dh_prev.data(), dc_prev.data(),
                dx.data());

  for (ParamTensor* p : cell.Params()) {
    // Sample entries to keep the test fast while covering all tensors.
    for (size_t i = 0; i < p->value().size(); i += 3) {
      double num = NumericalGrad(p, i, 1e-3, loss);
      EXPECT_NEAR(p->grad().data()[i], num, 2e-2) << p->name << "[" << i << "]";
    }
  }
  for (int i = 0; i < in; ++i) {
    double num = NumericalGrad(&x[i], 1e-3, loss);
    EXPECT_NEAR(dx[i], num, 2e-2);
  }
  for (int i = 0; i < hid; ++i) {
    double num_h = NumericalGrad(&h0[i], 1e-3, loss);
    EXPECT_NEAR(dh_prev[i], num_h, 2e-2);
    double num_c = NumericalGrad(&c0[i], 1e-3, loss);
    EXPECT_NEAR(dc_prev[i], num_c, 2e-2);
  }
}

// A one-hot input with and without a dense tail against the same input as
// a dense vector: the forward and the Wx, Wh and bias gradients agree
// bitwise (the one-hot backward writes only the token and tail columns).
TEST(LstmCellGradientTest, OneHotPathMatchesDense) {
  for (int tail : {0, 2}) {
    Rng rng(17);
    const int tokens = 5, hid = 3;
    LstmCell dense_cell(tokens + tail, hid, /*onehot_input=*/false, &rng);
    LstmCell onehot_cell = dense_cell;
    std::vector<float> h0(hid, 0.1f), c0(hid, -0.1f);
    std::vector<float> x(tokens + tail, 0.f);
    x[2] = 1.f;
    LstmCell::Cache onehot;
    for (int j = 0; j < tail; ++j) {
      x[tokens + j] = j == 0 ? -0.75f : 2.5f;
      onehot.x.push_back(x[tokens + j]);
    }
    LstmCell::Cache dense;
    DenseForward(dense_cell, x, h0, c0, &dense);
    onehot.onehot = 2;
    onehot.h_prev = h0;
    onehot.c_prev = c0;
    onehot_cell.Forward(onehot.onehot, onehot.x.data(), tail, h0.data(),
                        c0.data(), &onehot);
    ASSERT_TRUE(SameBytes(dense.h, onehot.h)) << "tail " << tail;
    ASSERT_TRUE(SameBytes(dense.c, onehot.c)) << "tail " << tail;

    const std::vector<float> dh = {0.5f, -1.f, 0.25f}, dc = {1.f, 0.f, -2.f};
    std::vector<float> dh_prev(hid), dc_prev(hid);
    dense_cell.Backward(dense, dh.data(), dc.data(), dh_prev.data(),
                        dc_prev.data(), nullptr);
    onehot_cell.Backward(onehot, dh.data(), dc.data(), dh_prev.data(),
                         dc_prev.data(), nullptr);
    ASSERT_TRUE(SameGradients(dense_cell.Params(), onehot_cell.Params()))
        << "tail " << tail;
    const ParamTensor& wx = *onehot_cell.Params()[0];
    for (int c = 0; c < tokens + tail; ++c) {
      EXPECT_EQ(wx.IsLive(c), c == 2 || c >= tokens) << "column " << c;
    }
  }
}

TEST(LstmStackGradientTest, BpttMatchesNumerical) {
  Rng rng(19);
  const int vocab = 6, hid = 4, layers = 2;
  LstmStack stack(vocab, hid, layers, /*dropout=*/0.f, &rng);
  std::vector<int> tokens = {1, 4, 2};
  std::vector<std::vector<float>> coef = {
      {1.f, 0.f, -1.f, 0.5f},
      {0.f, 2.f, 0.f, -0.5f},
      {1.f, 1.f, 1.f, 1.f},
  };

  Rng dummy(0);
  auto loss = [&]() {
    LstmStack::State st = stack.InitialState();
    double l = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const float* h = StepToken(stack, tokens[t], &st, nullptr, nullptr);
      for (int k = 0; k < hid; ++k) l += h[k] * coef[t][k];
    }
    return l;
  };

  // Forward with caches, then BPTT.
  LstmStack::State st = stack.InitialState();
  std::vector<LstmStack::StepCache> caches(tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    StepToken(stack, tokens[t], &st, &caches[t], &dummy);
  }
  stack.Backward(caches, coef);

  int checked = 0;
  for (ParamTensor* p : stack.Params()) {
    for (size_t i = 0; i < p->value().size(); i += 7) {
      double num = NumericalGrad(p, i, 1e-3, loss);
      EXPECT_NEAR(p->grad().data()[i], num, 3e-2) << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GE(checked, 40);
}

// BPTT through inverted dropout: each loss evaluation replays the same
// masks from a fresh RNG, once without a cache (masks applied, not kept)
// and once with caches for Backward (masks kept and routed back).
TEST(LstmStackGradientTest, BpttThroughDropoutMatchesNumerical) {
  Rng rng(23);
  const int vocab = 6, hid = 4, layers = 3;
  LstmStack stack(vocab, hid, layers, /*dropout=*/0.5f, &rng);
  std::vector<int> tokens = {1, 4, 2, 5};
  std::vector<std::vector<float>> coef = {
      {1.f, 0.f, -1.f, 0.5f},
      {0.f, 2.f, 0.f, -0.5f},
      {1.f, 1.f, 1.f, 1.f},
      {-1.f, 0.5f, 0.f, 2.f},
  };
  auto loss = [&]() {
    Rng masks(5);
    LstmStack::State st = stack.InitialState();
    double l = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const float* h = StepToken(stack, tokens[t], &st, nullptr, &masks);
      for (int k = 0; k < hid; ++k) l += h[k] * coef[t][k];
    }
    return l;
  };

  Rng masks(5);
  LstmStack::State st = stack.InitialState();
  std::vector<LstmStack::StepCache> caches(tokens.size());
  int dropped = 0;
  for (size_t t = 0; t < tokens.size(); ++t) {
    StepToken(stack, tokens[t], &st, &caches[t], &masks);
    ASSERT_EQ(caches[t].dropout_mask.size(), static_cast<size_t>(layers));
    for (int l = 1; l < layers; ++l) {
      for (float m : caches[t].dropout_mask[l]) dropped += m == 0.f ? 1 : 0;
    }
  }
  ASSERT_GT(dropped, 0);
  stack.Backward(caches, coef);

  int checked = 0;
  for (ParamTensor* p : stack.Params()) {
    for (size_t i = 0; i < p->value().size(); i += 5) {
      double num = NumericalGrad(p, i, 1e-3, loss);
      EXPECT_NEAR(p->grad().data()[i], num, 3e-2) << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GE(checked, 60);
}

// ---------------------------------------------------------------- adam

TEST(AdamTest, MinimizesQuadratic) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  w.UpdateValue([](Matrix* v) { v->data()[0] = 10.f; });
  Adam opt({&w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    // d/dw 0.5 (w - 3)^2 = w - 3
    w.mutable_grad()->data()[0] = w.value().data()[0] - 3.f;
    opt.Step();
  }
  EXPECT_NEAR(w.value().data()[0], 3.f, 0.05);
  EXPECT_EQ(opt.steps(), 500);
}

TEST(AdamTest, StepZeroesGradients) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  Adam opt({&w}, 0.01f);
  w.mutable_grad()->data()[0] = 1.f;
  opt.Step();
  EXPECT_FLOAT_EQ(w.grad().data()[0], 0.f);
}

TEST(AdamTest, ZeroGradDiscards) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  Adam opt({&w}, 0.01f);
  w.mutable_grad()->data()[0] = 1.f;
  float before = w.value().data()[0];
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(w.grad().data()[0], 0.f);
  EXPECT_FLOAT_EQ(w.value().data()[0], before);
}

// ------------------------------------------------------------- serialize

TEST(SerializeTest, RoundTrip) {
  Rng rng(31);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);
  std::string path = std::filesystem::temp_directory_path() /
                     "lsg_serialize_test.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  ASSERT_TRUE(LoadParams(b.Params(), path).ok());
  auto pa = a.Params();
  auto pb = b.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t k = 0; k < pa[i]->value().size(); ++k) {
      EXPECT_FLOAT_EQ(pa[i]->value().data()[k], pb[i]->value().data()[k]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(37);
  Linear a(3, 2, &rng);
  Linear b(4, 2, &rng);
  std::string path = std::filesystem::temp_directory_path() /
                     "lsg_serialize_mismatch.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  EXPECT_FALSE(LoadParams(b.Params(), path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptNameLengthRejectedBeforeAllocating) {
  Rng rng(43);
  Linear a(3, 2, &rng);
  std::string path = std::filesystem::temp_directory_path() /
                     "lsg_serialize_name_len.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  {
    // The first tensor's name length follows the magic and the count.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint32_t name_len = UINT32_MAX;
    ASSERT_EQ(std::fseek(f, 2 * sizeof(uint32_t), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_EQ(LoadParams(a.Params(), path).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(41);
  Linear a(2, 2, &rng);
  EXPECT_EQ(LoadParams(a.Params(), "/nonexistent/dir/x.bin").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lsg
