// Kernel-layer verification: bit-exact blocked-vs-naive equivalence across
// edge-tile shapes, thread-count-invariance, IEEE special-value propagation
// (no zero-skip), write-mode overwrite semantics, the ThreadPool's static
// partitioning contract, the GELU kernel's SIMD = scalar contract and tanh
// error bound, and gradients of every fused op under both backends.
#include "nn/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "nn/grad_check.h"
#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bigcity::nn::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

using KernelFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, bool);

struct Shape {
  int64_t n, k, m;
};

/// Odd/edge-tile shapes: single element, primes straddling the MR=4 /
/// NR=16 / MC=64 tile boundaries, K=1, tall, wide, and K=300 > KC=256 so
/// the blocked path crosses a depth-panel boundary.
const std::vector<Shape> kShapes = {
    {1, 1, 1},  {3, 5, 7},    {4, 16, 64},  {1, 7, 1},   {13, 1, 17},
    {5, 300, 9}, {64, 64, 64}, {67, 129, 31}, {130, 17, 5}, {5, 17, 130},
};

std::vector<float> RandomVec(size_t size, util::Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

/// Restores the process-global backend + thread count after each test so
/// ordering cannot leak state between tests.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = backend();
    saved_threads_ = NumThreads();
  }
  void TearDown() override {
    SetBackend(saved_backend_);
    SetNumThreads(saved_threads_);
  }

 private:
  GemmBackend saved_backend_ = GemmBackend::kBlocked;
  int saved_threads_ = 1;
};

/// Runs naive and blocked on identical inputs and asserts bit equality.
/// Write mode starts from a sentinel-filled C (flushing stale contents is
/// part of the contract); accumulate mode starts from random C.
void ExpectBitEqual(KernelFn naive, KernelFn blocked, const Shape& s,
                    size_t b_size, size_t c_size, bool accumulate) {
  util::Rng rng(41 + s.n + 3 * s.k + 7 * s.m + (accumulate ? 1 : 0));
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(b_size, &rng);
  std::vector<float> c0 = accumulate ? RandomVec(c_size, &rng)
                                     : std::vector<float>(c_size, 123.25f);
  std::vector<float> c1 = c0;
  naive(a.data(), b.data(), c0.data(), s.n, s.k, s.m, accumulate);
  blocked(a.data(), b.data(), c1.data(), s.n, s.k, s.m, accumulate);
  for (size_t i = 0; i < c_size; ++i) {
    ASSERT_EQ(c0[i], c1[i])
        << "element " << i << " shape {" << s.n << "," << s.k << "," << s.m
        << "} accumulate=" << accumulate;
    if (!accumulate) {
      ASSERT_NE(c1[i], 123.25f) << "stale output survived";
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveAB) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmABNaive, GemmABBlocked, s,
                     static_cast<size_t>(s.k * s.m),
                     static_cast<size_t>(s.n * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveABt) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmABtNaive, GemmABtBlocked, s,
                     static_cast<size_t>(s.m * s.k),
                     static_cast<size_t>(s.n * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveAtB) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmAtBNaive, GemmAtBBlocked, s,
                     static_cast<size_t>(s.n * s.m),
                     static_cast<size_t>(s.k * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedIsThreadCountInvariant) {
  const Shape s{200, 70, 90};
  util::Rng rng(99);
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(s.k * s.m),
                                         &rng);
  SetNumThreads(1);
  std::vector<float> c1(static_cast<size_t>(s.n * s.m));
  GemmABBlocked(a.data(), b.data(), c1.data(), s.n, s.k, s.m, false);
  for (int threads : {2, 4, 7}) {
    SetNumThreads(threads);
    std::vector<float> cn(static_cast<size_t>(s.n * s.m));
    GemmABBlocked(a.data(), b.data(), cn.data(), s.n, s.k, s.m, false);
    EXPECT_EQ(c1, cn) << threads << " threads diverged from 1 thread";
  }
}

/// 0 * Inf must be NaN in every backend and pattern: the old per-op loops
/// skipped zero multiplicands, silently masking Inf/NaN operands from the
/// trainer's non-finite guards.
TEST_F(KernelsTest, ZeroTimesInfPropagatesNan) {
  const KernelFn kernels[][2] = {{GemmABNaive, GemmABBlocked},
                                 {GemmABtNaive, GemmABtBlocked},
                                 {GemmAtBNaive, GemmAtBBlocked}};
  // 2x2 square case: every operand position participates in every pattern.
  const std::vector<float> a = {0.0f, 1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {kInf, 1.0f, 1.0f, 1.0f};
  for (const auto& pair : kernels) {
    for (const KernelFn fn : pair) {
      std::vector<float> c(4, 0.0f);
      fn(a.data(), b.data(), c.data(), 2, 2, 2, false);
      bool has_nan = false;
      for (float v : c) has_nan = has_nan || std::isnan(v);
      EXPECT_TRUE(has_nan) << "0*Inf was skipped";
    }
  }
}

TEST_F(KernelsTest, DispatchHonorsBackendSelection) {
  const Shape s{9, 11, 13};
  util::Rng rng(7);
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(s.k * s.m),
                                         &rng);
  std::vector<float> c_naive(static_cast<size_t>(s.n * s.m));
  std::vector<float> c_blocked(c_naive.size());
  SetBackend(GemmBackend::kNaive);
  EXPECT_EQ(backend(), GemmBackend::kNaive);
  GemmAB(a.data(), b.data(), c_naive.data(), s.n, s.k, s.m, false);
  SetBackend(GemmBackend::kBlocked);
  EXPECT_EQ(backend(), GemmBackend::kBlocked);
  GemmAB(a.data(), b.data(), c_blocked.data(), s.n, s.k, s.m, false);
  EXPECT_EQ(c_naive, c_blocked);
}

// --- ThreadPool contract ----------------------------------------------------

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  auto collect = [](int num_threads) {
    util::ThreadPool pool(num_threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(0, 103, 10, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(lo, hi);
    });
    return chunks;
  };
  const auto single = collect(1);
  ASSERT_EQ(single.size(), 11u);  // ceil(103 / 10).
  for (const auto& [lo, hi] : single) {
    EXPECT_EQ(lo % 10, 0);
    EXPECT_EQ(hi, std::min<int64_t>(lo + 10, 103));
  }
  EXPECT_EQ(collect(3), single);
  EXPECT_EQ(collect(8), single);
}

TEST(ThreadPoolTest, EveryIterationRunsExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeAndReuse) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 10, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The pool stays usable across many consecutive jobs.
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(0, 64, 8, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
    });
  }
  for (int h : hits) ASSERT_EQ(h, 50);
}

// --- GELU kernel ------------------------------------------------------------

/// Bit patterns equal (NaN == NaN with the same payload, -0 != +0).
bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every float the GELU contract names: a dense sweep of [-20, 20], signed
/// zeros, denormals, the largest/smallest finite values, infinities, NaN,
/// and neighbours of the tanh clamp (±9) and of the GELU input whose tanh
/// argument lands near it (about ±4.63).
std::vector<float> GeluInputs() {
  std::vector<float> v;
  constexpr int kSweep = 1 << 20;
  for (int i = 0; i <= kSweep; ++i) {
    v.push_back(-20.0f + 40.0f * static_cast<float>(i) / kSweep);
  }
  const float kMax = std::numeric_limits<float>::max();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f,
                            kDenorm,
                            2.5f * kDenorm,
                            std::numeric_limits<float>::min() / 2,
                            std::numeric_limits<float>::min(),
                            1e-30f,
                            kMax,
                            kInf,
                            std::numeric_limits<float>::quiet_NaN(),
                            9.0f,
                            std::nextafter(9.0f, 0.0f),
                            std::nextafter(9.0f, kInf),
                            4.63f,
                            1e20f};
  for (float s : specials) {
    v.push_back(s);
    v.push_back(-s);
  }
  return v;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size());
  size_t mismatches = 0, first = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameBits(want[i], got[i]) && mismatches++ == 0) first = i;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first mismatch at " << first
                            << ": " << want[first] << " vs " << got[first];
}

TEST(GeluKernelTest, EveryVariantMatchesScalarBitForBit) {
  const std::vector<float> x = GeluInputs();
  const int64_t n = static_cast<int64_t>(x.size());
  util::Rng rng(17);
  std::vector<float> dy(x.size());
  for (auto& g : dy) g = static_cast<float>(rng.Uniform(-2.0, 2.0));
  // A bias row whose width leaves a vector tail on every ISA, over the
  // same values laid out as rows.
  constexpr int64_t kCols = 37;
  const int64_t rows = n / kCols;
  std::vector<float> bias(kCols);
  for (auto& b : bias) b = static_cast<float>(rng.Uniform(-3.0, 3.0));

  std::vector<float> ref_y(x.size()), ref_dx(x.size());
  std::vector<float> ref_by(x.size()), ref_bdx(x.size());
  GeluForward(Isa::kScalar, x.data(), nullptr, ref_y.data(), 1, n);
  GeluBackward(Isa::kScalar, x.data(), nullptr, dy.data(), ref_dx.data(), 1,
               n);
  GeluForward(Isa::kScalar, x.data(), bias.data(), ref_by.data(), rows,
              kCols);
  GeluBackward(Isa::kScalar, x.data(), bias.data(), dy.data(),
               ref_bdx.data(), rows, kCols);
  EXPECT_FALSE(SupportedIsas().empty());
  for (Isa isa : SupportedIsas()) {
    SCOPED_TRACE(static_cast<int>(isa));
    std::vector<float> y(x.size()), dx(x.size()), by(x.size()),
        bdx(x.size());
    GeluForward(isa, x.data(), nullptr, y.data(), 1, n);
    GeluBackward(isa, x.data(), nullptr, dy.data(), dx.data(), 1, n);
    GeluForward(isa, x.data(), bias.data(), by.data(), rows, kCols);
    GeluBackward(isa, x.data(), bias.data(), dy.data(), bdx.data(), rows,
                 kCols);
    ExpectSameBits(ref_y, y, "forward");
    ExpectSameBits(ref_dx, dx, "backward");
    ExpectSameBits(ref_by, by, "forward + bias");
    ExpectSameBits(ref_bdx, bdx, "backward + bias");
  }
  // The dispatched entry points run one of the variants checked above.
  std::vector<float> y(x.size());
  GeluForward(x.data(), nullptr, y.data(), 1, n);
  ExpectSameBits(ref_y, y, "dispatched forward");
}

TEST(GeluKernelTest, TanhIsAccurateOddAndSaturates) {
  double max_err = 0.0;
  float worst = 0.0f;
  for (float x : GeluInputs()) {
    const float t = GeluTanh(x);
    EXPECT_TRUE(SameBits(GeluTanh(-x), -t)) << x;
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(t));
      continue;
    }
    const double err = std::fabs(static_cast<double>(t) -
                                 std::tanh(static_cast<double>(x)));
    if (err > max_err) {
      max_err = err;
      worst = x;
    }
  }
  EXPECT_LE(max_err, 1e-6) << "at x = " << worst;
  EXPECT_TRUE(SameBits(GeluTanh(0.0f), 0.0f));
  EXPECT_TRUE(SameBits(GeluTanh(-0.0f), -0.0f));
  EXPECT_EQ(GeluTanh(9.0f), 1.0f);
  EXPECT_EQ(GeluTanh(-9.5f), -1.0f);
  EXPECT_EQ(GeluTanh(kInf), 1.0f);
  EXPECT_EQ(GeluTanh(-kInf), -1.0f);
}

TEST(GeluKernelTest, GeluOfLargeInputsIsExact) {
  // tanh saturates to exactly ±1, so GELU(u) is exactly u or 0 far from 0.
  const float in[] = {20.0f, 1e20f, -20.0f, -1e20f};
  float out[4];
  GeluForward(in, nullptr, out, 1, 4);
  EXPECT_EQ(out[0], 20.0f);
  EXPECT_EQ(out[1], 1e20f);
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_EQ(out[3], 0.0f);
}

// --- Fused ops: forward semantics -------------------------------------------

TEST_F(KernelsTest, BiasGeluMatchesUnfusedExactly) {
  util::Rng rng(5);
  Tensor x = Tensor::Randn({6, 9}, &rng);
  Tensor b_row = Tensor::Randn({9}, &rng);
  Tensor b_same = Tensor::Randn({6, 9}, &rng);
  EXPECT_EQ(BiasGelu(x, b_row).data(), Gelu(Add(x, b_row)).data());
  EXPECT_EQ(BiasGelu(x, b_same).data(), Gelu(Add(x, b_same)).data());
  EXPECT_EQ(BiasLeakyRelu(x, b_same, 0.2f).data(),
            LeakyRelu(Add(x, b_same), 0.2f).data());
}

TEST_F(KernelsTest, MatMulNTMatchesTransposedMatMulExactly) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({7, 12}, &rng);
  Tensor b = Tensor::Randn({5, 12}, &rng);
  // Both sum a[i,p]*b[j,p] in ascending p from a zero seed, so the fused
  // node is bit-identical to the transpose-then-matmul formulation.
  EXPECT_EQ(MatMulNT(a, b).data(), MatMul(a, Transpose(b)).data());
}

TEST_F(KernelsTest, AffineMatchesUnfusedClosely) {
  util::Rng rng(8);
  Tensor x = Tensor::Randn({5, 11}, &rng);
  Tensor w = Tensor::Randn({11, 6}, &rng);
  Tensor b = Tensor::Randn({6}, &rng);
  Tensor r = Tensor::Randn({5, 6}, &rng);
  const Tensor fused = Affine(x, w, b);
  const Tensor unfused = Add(MatMul(x, w), b);
  ASSERT_EQ(fused.data().size(), unfused.data().size());
  // The bias is the first summand in the fused node and the last in the
  // unfused chain, so agreement is near, not bitwise.
  for (size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], unfused.data()[i], 1e-5f);
  }
  const Tensor fused_res = AffineResidual(x, w, b, r);
  const Tensor unfused_res = Add(Add(MatMul(x, w), b), r);
  for (size_t i = 0; i < fused_res.data().size(); ++i) {
    EXPECT_NEAR(fused_res.data()[i], unfused_res.data()[i], 1e-5f);
  }
  // Without bias, Affine is a plain write-mode matmul: exact.
  EXPECT_EQ(Affine(x, w, Tensor()).data(), MatMul(x, w).data());
}

TEST_F(KernelsTest, ScaledMaskedSoftmaxMatchesUnfusedClosely) {
  util::Rng rng(9);
  Tensor scores = Tensor::Randn({6, 6}, &rng);
  const float scale = 0.37f;
  Tensor fused = ScaledMaskedSoftmax(scores, scale, /*causal=*/true);
  // Reference: additive -1e9 mask (the pre-kernel-layer formulation).
  std::vector<float> mask_data(36, 0.0f);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = i + 1; j < 6; ++j) mask_data[i * 6 + j] = -1e9f;
  }
  Tensor mask = Tensor::FromData({6, 6}, std::move(mask_data));
  Tensor ref = Softmax(Add(Scale(scores, scale), mask));
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      const float got = fused.data()[i * 6 + j];
      if (j > i) {
        EXPECT_EQ(got, 0.0f) << "masked entry must be exactly zero";
      } else {
        EXPECT_NEAR(got, ref.data()[i * 6 + j], 1e-6f);
      }
    }
  }
  // Rows sum to 1.
  for (int64_t i = 0; i < 6; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 6; ++j) sum += fused.data()[i * 6 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Non-causal path against plain softmax of scaled scores.
  Tensor plain = ScaledMaskedSoftmax(scores, scale, /*causal=*/false);
  Tensor plain_ref = Softmax(Scale(scores, scale));
  for (size_t i = 0; i < plain.data().size(); ++i) {
    EXPECT_NEAR(plain.data()[i], plain_ref.data()[i], 1e-6f);
  }
}

// --- Fused ops: gradients under both backends -------------------------------

class FusedGradTest : public KernelsTest,
                      public ::testing::WithParamInterface<GemmBackend> {
 protected:
  void SetUp() override {
    KernelsTest::SetUp();
    SetBackend(GetParam());
  }
};

constexpr float kGradTolerance = 3e-2f;

TEST_P(FusedGradTest, Affine) {
  util::Rng rng(21);
  Tensor x = Tensor::Randn({3, 5}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({5, 4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor r = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(Affine(x, w, b))); };
  EXPECT_LT(MaxGradError(x, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(w, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
  auto loss_res = [&]() {
    return Sum(Square(AffineResidual(x, w, b, r)));
  };
  EXPECT_LT(MaxGradError(x, loss_res), kGradTolerance);
  EXPECT_LT(MaxGradError(r, loss_res), kGradTolerance);
}

TEST_P(FusedGradTest, BiasActivations) {
  util::Rng rng(22);
  Tensor x = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b_row = Tensor::Randn({4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b_same = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  // Keep pre-activations away from the LeakyReLU kink at 0.
  auto nudge = [](Tensor* t) {
    for (auto& v : t->data()) {
      if (std::fabs(v) < 0.05f) v = v < 0 ? -0.1f : 0.1f;
    }
  };
  nudge(&x);
  auto gelu_row = [&]() { return Sum(Square(BiasGelu(x, b_row))); };
  EXPECT_LT(MaxGradError(x, gelu_row), kGradTolerance);
  EXPECT_LT(MaxGradError(b_row, gelu_row), kGradTolerance);
  auto gelu_same = [&]() { return Sum(Square(BiasGelu(x, b_same))); };
  EXPECT_LT(MaxGradError(b_same, gelu_same), kGradTolerance);
  auto leaky = [&]() { return Sum(Square(BiasLeakyRelu(x, b_row, 0.2f))); };
  EXPECT_LT(MaxGradError(x, leaky), kGradTolerance);
  EXPECT_LT(MaxGradError(b_row, leaky), kGradTolerance);
}

TEST_P(FusedGradTest, ScaledMaskedSoftmax) {
  util::Rng rng(23);
  Tensor scores = Tensor::Randn({4, 4}, &rng, 0.8f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({4, 4}, &rng);
  for (bool causal : {false, true}) {
    auto loss = [&]() {
      return Sum(Mul(ScaledMaskedSoftmax(scores, 0.7f, causal), w));
    };
    EXPECT_LT(MaxGradError(scores, loss), kGradTolerance)
        << "causal=" << causal;
  }
}

TEST_P(FusedGradTest, MatMulNT) {
  util::Rng rng(24);
  Tensor a = Tensor::Randn({3, 6}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({4, 6}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(MatMulNT(a, b))); };
  EXPECT_LT(MaxGradError(a, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
}

TEST_P(FusedGradTest, MatMulThroughKernels) {
  util::Rng rng(25);
  Tensor a = Tensor::Randn({4, 7}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({7, 3}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(MatMul(a, b))); };
  EXPECT_LT(MaxGradError(a, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
}

INSTANTIATE_TEST_SUITE_P(Backends, FusedGradTest,
                         ::testing::Values(GemmBackend::kBlocked,
                                           GemmBackend::kNaive),
                         [](const auto& info) {
                           return info.param == GemmBackend::kBlocked
                                      ? "Blocked"
                                      : "Naive";
                         });

}  // namespace
}  // namespace bigcity::nn::kernels
