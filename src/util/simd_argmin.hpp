// The dispatch kernels of rejection_flow_policy.hpp's dense sweep.
//
// The dense dispatch sweep is three loops over machine-indexed arrays: the
// float32 lower-bound fill over the job's double row, the kBlock=8 block
// minima + first-index argmin, and (on the idle path) the exact
// idle-machine lambda argmin over the same double row. They are plain
// scalar loops, kept out of line so the policy template stays readable;
// the compiler vectorizes what it can.
//
// Contracts the dispatch relies on:
//  * lb_fill rounds each double p DOWN to float (float_lower, in a
//    register: +inf becomes FLT_MAX) and then performs exactly
//    mul/min/mul/add (no FMA: the portable baseline has no FMA
//    instruction, and OSCHED_NATIVE adds -ffp-contract=off).
//  * Inputs are NaN-free (finite positive p, +inf for ineligible machines)
//    and never -0.0, so min is exactly associative and commutative: any
//    reduction order yields the same minimum VALUE.
//  * Index selection is first-index-of-minimum, the lexicographic
//    (value, id) tie-break of the linear-scan dispatch.
// tests/simd_argmin_test.cpp checks each kernel against a naive loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace osched::util {

/// The dispatch kernels have one implementation. This type and
/// active_simd_tier() exist only for the `# simd_tier:` attribution line
/// the end-to-end benchmark driver prints.
enum class SimdTier : int { kScalar = 0 };

const char* to_string(SimdTier tier);

SimdTier active_simd_tier();

namespace simd {

/// lb[i] = p * coeff + pcm[i] * min(p, pmp[i]) with p = float_lower(row[i])
/// for i in [0, m) — the dense lower-bound fill of the dispatch sweep.
void lb_fill(const double* row, const float* pcm, const float* pmp,
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
/// lb[0, m) — tail included — with the first index attaining it. The
/// minimum is seeded at FLT_MAX, so an all-+inf row reports {FLT_MAX, m}.
ArgminResult block_minima_argmin(const float* lb, std::size_t m, float* bmin);

/// Exact idle-machine argmin of the dispatch's idle path: over machines i
/// in [0, m) with pend_n[i] == 0, minimize lambda = row[i] / epsilon +
/// row[i] (the empty-queue lambda: double division then addition), ties to
/// the smallest i. Returns index m when no machine is idle; lambda is then
/// +infinity.
struct IdleArgmin {
  double lambda = 0.0;
  std::size_t index = 0;
};

IdleArgmin idle_lambda_argmin(const double* row, const std::uint32_t* pend_n,
                              std::size_t m, double epsilon);

}  // namespace simd
}  // namespace osched::util
