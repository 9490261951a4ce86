#include <cmath>

#include "nn/kernels/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define BIGCITY_KERNEL_X86 1
#include <immintrin.h>
#else
#define BIGCITY_KERNEL_X86 0
#endif

namespace bigcity::nn::kernels {

namespace {

// GELU (GPT-2 tanh form) on an in-house tanh, so no variant calls libm and
// the result does not depend on the host's math library.
//
// tanh(x) ~= t·P(t²) / Q(t²) with t = clamp(x, ±kClamp), P of degree 5 and
// Q of degree 3 in t² (Q(0) = 1), and the ratio clamped to [-1, 1]. The
// coefficients are a weighted least-squares fit of that odd/even rational
// to tanh on [0, 9], iterated towards minimax (Lawson weights): within
// 5.3e-8 of tanh in exact arithmetic. Evaluated in float as below, the
// worst error over every float is 3.7e-7 absolute (7 ulp). The ratio is
// exactly 1.0f at the clamp, so tanh is exactly ±1 for |x| >= 9: GELU of a
// large negative input is exactly 0, not a residue that grows with |x|.
//
// Numerical contract: every variant runs the same IEEE operations in the
// same order per element: separately rounded mul then add (this file is
// built with -ffp-contract=off, and the SIMD variants never use FMA
// intrinsics) and a correctly rounded division, never a reciprocal
// estimate. Min/max follow MINPS/MAXPS semantics (the second operand is
// returned when either is NaN), which the scalar form spells out, so NaN
// propagates and every variant is bit-identical to the scalar reference.
// The clamps are symmetric and P(t²)·t flips sign exactly, so
// tanh(-x) == -tanh(x) bit for bit.
constexpr float kClamp = 9.0f;
constexpr float kP0 = 0.99999973643518748f;
constexpr float kP1 = 0.12910667384555142f;
constexpr float kP2 = 0.0029119775610711326f;
constexpr float kP3 = 9.1949432168125436e-06f;
constexpr float kP4 = -1.2590877247321482e-08f;
constexpr float kP5 = 1.7837659164401252e-11f;
constexpr float kQ1 = 0.46243900376765892f;
constexpr float kQ2 = 0.023726098857140756f;
constexpr float kQ3 = 0.00022693874616664917f;

constexpr float kPi = 3.14159265358979323846f;
const float kSqrt2OverPi = std::sqrt(2.0f / kPi);
constexpr float kCubic = 0.044715f;
constexpr float kCubic3 = 3.0f * 0.044715f;

/// a < b ? a : b and a > b ? a : b: MINPS/MAXPS operand semantics.
inline float MinPs(float a, float b) { return a < b ? a : b; }
inline float MaxPs(float a, float b) { return a > b ? a : b; }

inline float TanhScalar(float x) {
  const float t = MaxPs(-kClamp, MinPs(kClamp, x));
  const float t2 = t * t;
  float p = kP5 * t2 + kP4;
  p = p * t2 + kP3;
  p = p * t2 + kP2;
  p = p * t2 + kP1;
  p = p * t2 + kP0;
  p = p * t;
  float q = kQ3 * t2 + kQ2;
  q = q * t2 + kQ1;
  q = q * t2 + 1.0f;
  return MaxPs(-1.0f, MinPs(1.0f, p / q));
}

/// 0.5·u·(1 + tanh(√(2/π)·(u + 0.044715·u³))).
inline float GeluScalar(float u) {
  const float cube = kCubic * u * u * u;
  const float t = TanhScalar(kSqrt2OverPi * (u + cube));
  return 0.5f * u * (1.0f + t);
}

/// d GELU / du = 0.5(1 + t) + 0.5·u·(1 - t²)·√(2/π)(1 + 3·0.044715·u²).
inline float GeluGradScalar(float u) {
  const float cube = kCubic * u * u * u;
  const float t = TanhScalar(kSqrt2OverPi * (u + cube));
  const float du = kSqrt2OverPi * (1.0f + kCubic3 * u * u);
  return 0.5f * (1.0f + t) + 0.5f * u * (1.0f - t * t) * du;
}

// Row kernels over n contiguous elements: u = x (+ bias). Forward writes
// y = GELU(u); backward writes dx = dy · GELU'(u) (dy null: forward).

void GeluRowScalar(const float* x, const float* bias, const float* dy,
                   float* out, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float u = bias != nullptr ? x[j] + bias[j] : x[j];
    out[j] = dy != nullptr ? dy[j] * GeluGradScalar(u) : GeluScalar(u);
  }
}

#if BIGCITY_KERNEL_X86

// The AVX2 bodies below mirror TanhScalar / GeluScalar / GeluGradScalar
// operation for operation. There is no AVX-512 variant: GELU is a small
// share of op time once it runs without libm, and an AVX-512 CPU runs
// this one.

__attribute__((target("avx2"))) inline __m256 TanhAvx2(__m256 x) {
  const __m256 clamp = _mm256_set1_ps(kClamp);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = _mm256_max_ps(_mm256_set1_ps(-kClamp),
                                 _mm256_min_ps(clamp, x));
  const __m256 t2 = _mm256_mul_ps(t, t);
  __m256 p = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kP5), t2),
                           _mm256_set1_ps(kP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, t2), _mm256_set1_ps(kP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, t2), _mm256_set1_ps(kP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, t2), _mm256_set1_ps(kP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, t2), _mm256_set1_ps(kP0));
  p = _mm256_mul_ps(p, t);
  __m256 q = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kQ3), t2),
                           _mm256_set1_ps(kQ2));
  q = _mm256_add_ps(_mm256_mul_ps(q, t2), _mm256_set1_ps(kQ1));
  q = _mm256_add_ps(_mm256_mul_ps(q, t2), one);
  return _mm256_max_ps(_mm256_set1_ps(-1.0f),
                       _mm256_min_ps(one, _mm256_div_ps(p, q)));
}

__attribute__((target("avx2"))) inline __m256 GeluInnerAvx2(__m256 u) {
  __m256 cube = _mm256_mul_ps(_mm256_set1_ps(kCubic), u);
  cube = _mm256_mul_ps(_mm256_mul_ps(cube, u), u);
  return TanhAvx2(
      _mm256_mul_ps(_mm256_set1_ps(kSqrt2OverPi), _mm256_add_ps(u, cube)));
}

__attribute__((target("avx2"))) void GeluRowAvx2(const float* x,
                                                 const float* bias,
                                                 const float* dy, float* out,
                                                 int64_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 u = _mm256_loadu_ps(x + j);
    if (bias != nullptr) u = _mm256_add_ps(u, _mm256_loadu_ps(bias + j));
    const __m256 t = GeluInnerAvx2(u);
    const __m256 half_u = _mm256_mul_ps(half, u);
    if (dy == nullptr) {
      _mm256_storeu_ps(out + j, _mm256_mul_ps(half_u, _mm256_add_ps(one, t)));
      continue;
    }
    __m256 du = _mm256_mul_ps(_mm256_set1_ps(kCubic3), u);
    du = _mm256_add_ps(one, _mm256_mul_ps(du, u));
    du = _mm256_mul_ps(_mm256_set1_ps(kSqrt2OverPi), du);
    const __m256 left = _mm256_mul_ps(half, _mm256_add_ps(one, t));
    const __m256 sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
    const __m256 right = _mm256_mul_ps(_mm256_mul_ps(half_u, sech2), du);
    _mm256_storeu_ps(out + j, _mm256_mul_ps(_mm256_loadu_ps(dy + j),
                                            _mm256_add_ps(left, right)));
  }
  GeluRowScalar(x + j, bias != nullptr ? bias + j : nullptr,
                dy != nullptr ? dy + j : nullptr, out + j, n - j);
}

#endif  // BIGCITY_KERNEL_X86

using GeluRowFn = void (*)(const float* x, const float* bias,
                           const float* dy, float* out, int64_t n);

GeluRowFn RowKernel(Isa isa) {
#if BIGCITY_KERNEL_X86
  if (isa != Isa::kScalar) return GeluRowAvx2;
#endif
  (void)isa;
  return GeluRowScalar;
}

Isa PickIsa() {
  return IsaSupported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

const Isa g_gelu_isa = PickIsa();

/// Runs `row` over [rows, cols]; without a bias row the block is one
/// contiguous run.
void GeluBlock(GeluRowFn row, const float* x, const float* bias,
               const float* dy, float* out, int64_t rows, int64_t cols) {
  if (bias == nullptr) {
    row(x, nullptr, dy, out, rows * cols);
    return;
  }
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t offset = i * cols;
    row(x + offset, bias, dy != nullptr ? dy + offset : nullptr,
        out + offset, cols);
  }
}

}  // namespace

float GeluTanh(float x) { return TanhScalar(x); }

void GeluForward(Isa isa, const float* x, const float* bias, float* y,
                 int64_t rows, int64_t cols) {
  GeluBlock(RowKernel(isa), x, bias, nullptr, y, rows, cols);
}

void GeluBackward(Isa isa, const float* x, const float* bias,
                  const float* dy, float* dx, int64_t rows, int64_t cols) {
  GeluBlock(RowKernel(isa), x, bias, dy, dx, rows, cols);
}

void GeluForward(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t cols) {
  GeluForward(g_gelu_isa, x, bias, y, rows, cols);
}

void GeluBackward(const float* x, const float* bias, const float* dy,
                  float* dx, int64_t rows, int64_t cols) {
  GeluBackward(g_gelu_isa, x, bias, dy, dx, rows, cols);
}

}  // namespace bigcity::nn::kernels
