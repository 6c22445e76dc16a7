// Explicitly vectorized dispatch kernels with runtime CPU dispatch.
//
// The dense dispatch sweep of rejection_flow_policy.hpp is three loops over
// machine-indexed arrays: the float32 lower-bound fill, the kBlock=8 block
// minima + first-index argmin, and (on the idle path) the exact
// idle-machine lambda argmin over the double row. The
// scalar versions are straight-line code the autovectorizer USUALLY
// handles; this module makes the vector shape explicit — AVX2 and AVX-512
// kernels selected per process by cpuid — with the scalar loop kept as the
// always-available reference and fallback.
//
// Bit-identity contract (the whole point — compare_bench.py gates
// deterministic metrics across binaries AND tiers):
//  * Elementwise kernels (lb_fill, the per-lane lambda evaluation) use
//    separate multiply and add intrinsics, never FMA: each lane performs
//    exactly the scalar operation sequence, and IEEE-754 arithmetic is
//    correctly rounded per operation, so every lane result equals the
//    scalar result bit for bit. (The scalar build cannot silently contract
//    to FMA: the portable baseline has no FMA instruction, and
//    OSCHED_NATIVE adds -ffp-contract=off. The AVX-512 target attribute
//    DOES enable FMA and GCC's default -ffp-contract=fast fuses even
//    separate mul/add intrinsics, so CMake compiles this module's TU with
//    -ffp-contract=off — the fuzz wall caught exactly that divergence on
//    denormals.)
//  * Min-reductions reassociate freely: inputs are NaN-free by the dispatch
//    contract (finite positive p, +inf for masked machines, and the
//    float_lower shadow maps +inf to FLT_MAX) and never -0.0 (products and
//    sums of non-negative finite values), so min is exactly associative and
//    commutative — any lane split yields the same minimum VALUE.
//  * Index selection is first-index-of-minimum, the lexicographic
//    (value, id) tie-break the scalar loops implement: vector paths either
//    locate the first equal lane after a value-only reduction, or carry a
//    per-lane first-index and resolve the smallest index among the lanes
//    attaining the minimum — both yield the global first index.
// tests/simd_argmin_test.cpp fuzzes all tiers in lockstep against the
// scalar reference (±inf, denormals, all-infinity rows).
//
// The kernels are compiled UNCONDITIONALLY (function-level target
// attributes, no special compile flags needed) and executed only when
// __builtin_cpu_supports allows; OSCHED_SIMD=scalar|avx2|avx512 caps the
// selected tier from the environment (ops runbook: docs/OPERATIONS.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace osched::util {

/// The dispatch kernel tier runtime dispatch selected. Ordered: a CPU (or
/// OSCHED_SIMD cap) supporting a tier supports every tier below it.
enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* to_string(SimdTier tier);

/// The tier this process dispatches to: the widest the CPU supports, capped
/// by OSCHED_SIMD when set. Probed once (cpuid + getenv), then cached.
SimdTier active_simd_tier();

/// Whether the running CPU can execute `tier`'s kernels (ignores the
/// OSCHED_SIMD cap) — the gate the differential wall uses to run every
/// executable tier, scalar-only hardware included.
bool simd_tier_supported(SimdTier tier);

namespace simd {

/// lb[i] = row[i] * coeff + pcm[i] * min(row[i], pmp[i]) for i in [0, m) —
/// the dense lower-bound fill of dispatch_indexed, per-lane identical to
/// the scalar loop (mul/min/mul/add, no FMA).
void lb_fill(const float* row, const float* pcm, const float* pmp,
             float coeff, float* lb, std::size_t m);

/// (minimum value, first index attaining it) over values[0, n). n == 0
/// returns {FLT_MAX, 0}; an all-greater row (every entry above FLT_MAX,
/// i.e. +inf) returns index n. NaN-free input contract.
struct ArgminResult {
  float value = 0.0f;
  std::size_t index = 0;
};

/// Fills bmin[b] = min(lb[8b .. 8b+8)) for every FULL block b < m/8 (the
/// rival screen's block minima) and returns the global minimum over all of
/// lb[0, m) — tail included — with the first index attaining it. Matches
/// the scalar two-level argmin of dispatch_indexed exactly: the minimum is
/// seeded at FLT_MAX, so an all-+inf row reports {FLT_MAX, m}.
ArgminResult block_minima_argmin(const float* lb, std::size_t m, float* bmin);

/// Exact idle-machine argmin of the dispatch's idle path: over machines i in [0, m) with pend_n[i] == 0, minimize
/// lambda = row[i] / epsilon + row[i] (the empty-queue lambda, evaluated
/// with the scalar operation sequence per lane — double division then
/// addition), ties to the smallest i. Returns index m when no machine is
/// idle; lambda is then +infinity.
struct IdleArgmin {
  double lambda = 0.0;
  std::size_t index = 0;
};

IdleArgmin idle_lambda_argmin(const double* row, const std::uint32_t* pend_n,
                              std::size_t m, double epsilon);

// ---- per-tier entry points (the differential wall's surface; the
// dispatched wrappers above route to the active tier's version). The AVX
// variants must only be CALLED when simd_tier_supported says so — they are
// always compiled (target attributes), never executed blind. ----

void lb_fill_scalar(const float* row, const float* pcm, const float* pmp,
                    float coeff, float* lb, std::size_t m);
void lb_fill_avx2(const float* row, const float* pcm, const float* pmp,
                  float coeff, float* lb, std::size_t m);
void lb_fill_avx512(const float* row, const float* pcm, const float* pmp,
                    float coeff, float* lb, std::size_t m);

ArgminResult block_minima_argmin_scalar(const float* lb, std::size_t m,
                                        float* bmin);
ArgminResult block_minima_argmin_avx2(const float* lb, std::size_t m,
                                      float* bmin);
ArgminResult block_minima_argmin_avx512(const float* lb, std::size_t m,
                                        float* bmin);

IdleArgmin idle_lambda_argmin_scalar(const double* row,
                                     const std::uint32_t* pend_n,
                                     std::size_t m, double epsilon);
IdleArgmin idle_lambda_argmin_avx2(const double* row,
                                   const std::uint32_t* pend_n, std::size_t m,
                                   double epsilon);
IdleArgmin idle_lambda_argmin_avx512(const double* row,
                                     const std::uint32_t* pend_n,
                                     std::size_t m, double epsilon);

}  // namespace simd
}  // namespace osched::util
