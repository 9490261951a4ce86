#ifndef BIGCITY_NN_KERNELS_KERNELS_H_
#define BIGCITY_NN_KERNELS_KERNELS_H_

#include <cstdint>

namespace bigcity::nn::kernels {

/// Instruction sets the kernels have variants for. Every kernel picks its
/// variant once at startup through IsaSupported, widest first; a kernel
/// without a variant for some ISA runs its next narrower one.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// True when this CPU can run `isa` (kScalar always).
bool IsaSupported(Isa isa);

// High-performance GEMM layer shared by every nn op. Three access patterns
// cover all forward/backward products in the models:
//
//   GemmAB  : C[N,M] (+)= A[N,K]  · B[K,M]
//   GemmABt : C[N,M] (+)= A[N,K]  · B[M,K]^T
//   GemmAtB : C[K,M] (+)= A[N,K]^T · B[N,M]
//
// `accumulate` selects += (gradient accumulation) vs = (write mode; the
// destination is fully overwritten and need not be initialized).
//
// Numerical contract: for every output element, products are added in
// ascending order of the inner dimension, starting from the destination
// value (accumulate) or 0 (write). The blocked and naive backends follow
// this contract exactly, so they produce bit-identical results for any
// shape, and the blocked backend is bit-identical for any thread count
// (rows are partitioned statically; see util/thread_pool.h).
//
// Unlike the pre-kernel-layer loops, no backend skips zero multiplicands:
// 0 · Inf and 0 · NaN propagate NaN per IEEE-754, which the trainer's
// non-finite step guards rely on.

/// Backend selection. The blocked backend packs operand panels and uses a
/// register-tiled micro-kernel; the naive backend is the scalar triple-loop
/// reference. Default is blocked, overridable via the BIGCITY_GEMM
/// environment variable ("naive" or "blocked") read at first use.
enum class GemmBackend { kBlocked, kNaive };

void SetBackend(GemmBackend backend);
GemmBackend backend();

/// Sets the worker-thread count for the blocked backend (clamped to >= 1).
/// Any value yields bit-identical results.
void SetNumThreads(int num_threads);
int NumThreads();

// --- Dispatching entry points (honor backend()) ----------------------------

void GemmAB(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m, bool accumulate);
void GemmABt(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate);
void GemmAtB(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate);

// --- Fixed-backend variants (equivalence tests, benchmarks) ----------------

void GemmABNaive(const float* a, const float* b, float* c, int64_t n,
                 int64_t k, int64_t m, bool accumulate);
void GemmABtNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate);
void GemmAtBNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate);

void GemmABBlocked(const float* a, const float* b, float* c, int64_t n,
                   int64_t k, int64_t m, bool accumulate);
void GemmABtBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate);
void GemmAtBBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate);

// --- GELU -------------------------------------------------------------------
//
// GPT-2 tanh-GELU over a row-major [rows, cols] block with an optional
// {cols} bias row broadcast to every row (null: none):
//
//   GeluForward : y  = GELU(x + bias)
//   GeluBackward: dx = dy · GELU'(x + bias)          (write mode)
//
// GELU(u) = 0.5·u·(1 + tanh(√(2/π)·(u + 0.044715·u³))). tanh is GeluTanh
// below, not libm, so results do not depend on the host's math library.
// Numerical contract: every SIMD variant is bit-identical to the scalar
// reference, element for element (DESIGN.md §4.8). There are scalar and
// AVX2 variants; on an AVX-512 CPU the AVX2 one runs.

/// The kernels' tanh (scalar reference): odd, clamped rational, within
/// 3.7e-7 of tanh for every float and exactly ±1 for |x| >= 9.
float GeluTanh(float x);

void GeluForward(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t cols);
void GeluBackward(const float* x, const float* bias, const float* dy,
                  float* dx, int64_t rows, int64_t cols);

// Fixed-variant entry points (equivalence tests); `isa` must be supported
// (kAvx512 runs the AVX2 variant).
void GeluForward(Isa isa, const float* x, const float* bias, float* y,
                 int64_t rows, int64_t cols);
void GeluBackward(Isa isa, const float* x, const float* bias, const float* dy,
                  float* dx, int64_t rows, int64_t cols);

}  // namespace bigcity::nn::kernels

#endif  // BIGCITY_NN_KERNELS_KERNELS_H_
