#include "util/simd_argmin.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace osched::util {

const char* to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "?";
}

bool simd_tier_supported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return true;
    case SimdTier::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case SimdTier::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
}

namespace {

SimdTier detect_tier() {
  SimdTier tier = SimdTier::kScalar;
  if (simd_tier_supported(SimdTier::kAvx512)) {
    tier = SimdTier::kAvx512;
  } else if (simd_tier_supported(SimdTier::kAvx2)) {
    tier = SimdTier::kAvx2;
  }
  // OSCHED_SIMD caps the tier (it can never enable what the CPU lacks):
  // "scalar" pins the reference path, "avx2" keeps 256-bit kernels on
  // AVX-512 hardware. Unrecognized values are ignored — a typo must not
  // silently change the perf tier to scalar.
  if (const char* env = std::getenv("OSCHED_SIMD")) {
    SimdTier cap = tier;
    if (std::strcmp(env, "scalar") == 0) cap = SimdTier::kScalar;
    else if (std::strcmp(env, "avx2") == 0) cap = SimdTier::kAvx2;
    else if (std::strcmp(env, "avx512") == 0) cap = SimdTier::kAvx512;
    if (static_cast<int>(cap) < static_cast<int>(tier)) tier = cap;
  }
  return tier;
}

/// Horizontal min of 4 floats (SSE baseline — callable from every tier).
inline float hmin128(__m128 v) {
  v = _mm_min_ps(v, _mm_movehl_ps(v, v));
  v = _mm_min_ss(v, _mm_shuffle_ps(v, v, 1));
  return _mm_cvtss_f32(v);
}

// AVX-512 helpers. GCC 12's unmasked AVX-512 intrinsics (min, the 128-bit
// extracts and casts, the zero-extending converts) pass an uninitialized
// pass-through operand to the masked builtin, which -Wmaybe-uninitialized
// then flags wherever they are inlined. The zero-masked forms with every
// lane selected compute the same values from initialized operands only.

/// Lane-wise min of two 16-float vectors.
__attribute__((target("avx512f"))) inline __m512 min16(__m512 a, __m512 b) {
  return _mm512_maskz_min_ps(static_cast<__mmask16>(0xFFFF), a, b);
}

/// Quarter Q (lanes 4Q..4Q+3) of a 16-float vector.
template <int Q>
__attribute__((target("avx512f"))) inline __m128 quarter(__m512 v) {
  return _mm512_maskz_extractf32x4_ps(static_cast<__mmask8>(0xF), v, Q);
}

/// Horizontal min of all 16 lanes.
__attribute__((target("avx512f"))) inline float hmin512(__m512 v) {
  return hmin128(_mm_min_ps(_mm_min_ps(quarter<0>(v), quarter<1>(v)),
                            _mm_min_ps(quarter<2>(v), quarter<3>(v))));
}

}  // namespace

SimdTier active_simd_tier() {
  static const SimdTier tier = detect_tier();
  return tier;
}

namespace simd {

// ---------------------------------------------------------------- lb_fill

void lb_fill_scalar(const float* row, const float* pcm, const float* pmp,
                    float coeff, float* lb, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    const float p = row[i];
    lb[i] = p * coeff + pcm[i] * std::min(p, pmp[i]);
  }
}

__attribute__((target("avx2"))) void lb_fill_avx2(const float* row,
                                                  const float* pcm,
                                                  const float* pmp, float coeff,
                                                  float* lb, std::size_t m) {
  const __m256 vc = _mm256_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 p = _mm256_loadu_ps(row + i);
    // mul + add kept separate (no FMA): per-lane identical to the scalar
    // operation sequence.
    const __m256 a = _mm256_mul_ps(p, vc);
    const __m256 b = _mm256_mul_ps(_mm256_loadu_ps(pcm + i),
                                   _mm256_min_ps(p, _mm256_loadu_ps(pmp + i)));
    _mm256_storeu_ps(lb + i, _mm256_add_ps(a, b));
  }
  lb_fill_scalar(row + i, pcm + i, pmp + i, coeff, lb + i, m - i);
}

__attribute__((target("avx512f"))) void lb_fill_avx512(
    const float* row, const float* pcm, const float* pmp, float coeff,
    float* lb, std::size_t m) {
  const __m512 vc = _mm512_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m512 p = _mm512_loadu_ps(row + i);
    const __m512 a = _mm512_mul_ps(p, vc);
    const __m512 b = _mm512_mul_ps(_mm512_loadu_ps(pcm + i),
                                   min16(p, _mm512_loadu_ps(pmp + i)));
    _mm512_storeu_ps(lb + i, _mm512_add_ps(a, b));
  }
  lb_fill_scalar(row + i, pcm + i, pmp + i, coeff, lb + i, m - i);
}

void lb_fill(const float* row, const float* pcm, const float* pmp, float coeff,
             float* lb, std::size_t m) {
  switch (active_simd_tier()) {
    case SimdTier::kAvx512: return lb_fill_avx512(row, pcm, pmp, coeff, lb, m);
    case SimdTier::kAvx2: return lb_fill_avx2(row, pcm, pmp, coeff, lb, m);
    case SimdTier::kScalar: break;
  }
  return lb_fill_scalar(row, pcm, pmp, coeff, lb, m);
}

// ------------------------------------------------- block_minima_argmin

namespace {

/// Shared locate step: the minimum VALUE is tier-independent (min is exact
/// over NaN-free floats), so every tier resolves the first attaining index
/// with the same block-skipping scan — earlier blocks whose bmin exceeds
/// the minimum cannot contain it.
ArgminResult locate_first(const float* lb, std::size_t m, const float* bmin,
                          std::size_t full, float gmin) {
  for (std::size_t b = 0; b < full; ++b) {
    if (bmin[b] == gmin) {
      std::size_t i = b * 8;
      while (lb[i] != gmin) ++i;
      return ArgminResult{gmin, i};
    }
  }
  for (std::size_t i = full * 8; i < m; ++i) {
    if (lb[i] == gmin) return ArgminResult{gmin, i};
  }
  // Only reachable when no entry equals the FLT_MAX seed (an all-+inf row):
  // index m tells the caller there is no candidate.
  return ArgminResult{gmin, m};
}

}  // namespace

ArgminResult block_minima_argmin_scalar(const float* lb, std::size_t m,
                                        float* bmin) {
  const std::size_t full = m / 8;
  for (std::size_t b = 0; b < full; ++b) {
    const float* chunk = lb + b * 8;
    const float v0 = std::min(chunk[0], chunk[1]);
    const float v1 = std::min(chunk[2], chunk[3]);
    const float v2 = std::min(chunk[4], chunk[5]);
    const float v3 = std::min(chunk[6], chunk[7]);
    bmin[b] = std::min(std::min(v0, v1), std::min(v2, v3));
  }
  float gmin = std::numeric_limits<float>::max();
  for (std::size_t i = full * 8; i < m; ++i) gmin = std::min(gmin, lb[i]);
  for (std::size_t b = 0; b < full; ++b) gmin = std::min(gmin, bmin[b]);
  return locate_first(lb, m, bmin, full, gmin);
}

__attribute__((target("avx2"))) ArgminResult block_minima_argmin_avx2(
    const float* lb, std::size_t m, float* bmin) {
  const std::size_t full = m / 8;
  __m256 acc = _mm256_set1_ps(std::numeric_limits<float>::max());
  for (std::size_t b = 0; b < full; ++b) {
    const __m256 v = _mm256_loadu_ps(lb + b * 8);
    acc = _mm256_min_ps(acc, v);
    const __m128 h = _mm_min_ps(_mm256_castps256_ps128(v),
                                _mm256_extractf128_ps(v, 1));
    bmin[b] = hmin128(h);
  }
  float gmin = hmin128(_mm_min_ps(_mm256_castps256_ps128(acc),
                                  _mm256_extractf128_ps(acc, 1)));
  for (std::size_t i = full * 8; i < m; ++i) gmin = std::min(gmin, lb[i]);
  return locate_first(lb, m, bmin, full, gmin);
}

__attribute__((target("avx512f"))) ArgminResult block_minima_argmin_avx512(
    const float* lb, std::size_t m, float* bmin) {
  const std::size_t full = m / 8;
  const std::size_t pairs = full / 2;  // 16-lane iterations = 2 blocks each
  __m512 acc = _mm512_set1_ps(std::numeric_limits<float>::max());
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    const __m512 v = _mm512_loadu_ps(lb + pair * 16);
    acc = min16(acc, v);
    bmin[pair * 2] = hmin128(_mm_min_ps(quarter<0>(v), quarter<1>(v)));
    bmin[pair * 2 + 1] = hmin128(_mm_min_ps(quarter<2>(v), quarter<3>(v)));
  }
  // min is exact and order-free over the NaN-free lb values, so this
  // reduction order gives the same value as any other.
  float gmin = hmin512(acc);
  if (full % 2 != 0) {  // odd trailing full block: 256-bit-free 8-lane min
    const float* chunk = lb + (full - 1) * 8;
    const __m128 h = _mm_min_ps(_mm_loadu_ps(chunk), _mm_loadu_ps(chunk + 4));
    bmin[full - 1] = hmin128(h);
    gmin = std::min(gmin, bmin[full - 1]);
  }
  for (std::size_t i = full * 8; i < m; ++i) gmin = std::min(gmin, lb[i]);
  return locate_first(lb, m, bmin, full, gmin);
}

ArgminResult block_minima_argmin(const float* lb, std::size_t m, float* bmin) {
  switch (active_simd_tier()) {
    case SimdTier::kAvx512: return block_minima_argmin_avx512(lb, m, bmin);
    case SimdTier::kAvx2: return block_minima_argmin_avx2(lb, m, bmin);
    case SimdTier::kScalar: break;
  }
  return block_minima_argmin_scalar(lb, m, bmin);
}

// --------------------------------------------------- idle_lambda_argmin

IdleArgmin idle_lambda_argmin_scalar(const double* row,
                                     const std::uint32_t* pend_n,
                                     std::size_t m, double epsilon) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = m;
  for (std::size_t i = 0; i < m; ++i) {
    if (pend_n[i] != 0) continue;
    const double p = row[i];
    const double lambda = p / epsilon + p;
    // Strict less + ascending scan = first index attaining the minimum,
    // the lexicographic (lambda, id) rule of the exact idle scan.
    if (lambda < best) {
      best = lambda;
      best_i = i;
    }
  }
  return IdleArgmin{best, best_i};
}

__attribute__((target("avx2"))) IdleArgmin idle_lambda_argmin_avx2(
    const double* row, const std::uint32_t* pend_n, std::size_t m,
    double epsilon) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d veps = _mm256_set1_pd(epsilon);
  const __m128i zero32 = _mm_setzero_si128();
  __m256d best = inf;
  __m256i bidx = _mm256_set1_epi64x(-1);
  __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i step = _mm256_set1_epi64x(4);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m128i n32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pend_n + i));
    const __m256i idle = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(n32, zero32));
    const __m256d p = _mm256_loadu_pd(row + i);
    // div then add, per-lane the scalar operation sequence (no FMA, no
    // reciprocal-multiply).
    __m256d lambda = _mm256_add_pd(_mm256_div_pd(p, veps), p);
    lambda = _mm256_blendv_pd(inf, lambda, _mm256_castsi256_pd(idle));
    const __m256d lt = _mm256_cmp_pd(lambda, best, _CMP_LT_OQ);
    best = _mm256_blendv_pd(best, lambda, lt);
    bidx = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(bidx), _mm256_castsi256_pd(idx), lt));
    idx = _mm256_add_epi64(idx, step);
  }
  // Per-lane strict-less kept each lane's FIRST attaining index; the
  // smallest index among the lanes attaining the global minimum is the
  // global first index.
  double vals[4];
  long long idxs[4];
  _mm256_storeu_pd(vals, best);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(idxs), bidx);
  double bl = std::numeric_limits<double>::infinity();
  std::size_t bi = m;
  for (int lane = 0; lane < 4; ++lane) {
    const auto lane_i = static_cast<std::size_t>(idxs[lane]);
    if (vals[lane] < bl || (vals[lane] == bl && lane_i < bi)) {
      bl = vals[lane];
      bi = lane_i;
    }
  }
  for (; i < m; ++i) {  // tail indices exceed every vector index
    if (pend_n[i] != 0) continue;
    const double p = row[i];
    const double lambda = p / epsilon + p;
    if (lambda < bl) {
      bl = lambda;
      bi = i;
    }
  }
  return IdleArgmin{bl, bi};
}

__attribute__((target("avx512f"))) IdleArgmin idle_lambda_argmin_avx512(
    const double* row, const std::uint32_t* pend_n, std::size_t m,
    double epsilon) {
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512d veps = _mm512_set1_pd(epsilon);
  __m512d best = inf;
  __m512i bidx = _mm512_set1_epi64(-1);
  __m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i step = _mm512_set1_epi64(8);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i n32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pend_n + i));
    const __mmask8 idle = _mm512_cmpeq_epi64_mask(
        _mm512_maskz_cvtepu32_epi64(static_cast<__mmask8>(0xFF), n32),
        _mm512_setzero_si512());
    const __m512d p = _mm512_loadu_pd(row + i);
    __m512d lambda = _mm512_add_pd(_mm512_div_pd(p, veps), p);
    lambda = _mm512_mask_blend_pd(idle, inf, lambda);
    const __mmask8 lt = _mm512_cmp_pd_mask(lambda, best, _CMP_LT_OQ);
    best = _mm512_mask_blend_pd(lt, best, lambda);
    bidx = _mm512_mask_blend_epi64(lt, bidx, idx);
    idx = _mm512_add_epi64(idx, step);
  }
  double vals[8];
  long long idxs[8];
  _mm512_storeu_pd(vals, best);
  _mm512_storeu_si512(idxs, bidx);
  double bl = std::numeric_limits<double>::infinity();
  std::size_t bi = m;
  for (int lane = 0; lane < 8; ++lane) {
    const auto lane_i = static_cast<std::size_t>(idxs[lane]);
    if (vals[lane] < bl || (vals[lane] == bl && lane_i < bi)) {
      bl = vals[lane];
      bi = lane_i;
    }
  }
  for (; i < m; ++i) {
    if (pend_n[i] != 0) continue;
    const double p = row[i];
    const double lambda = p / epsilon + p;
    if (lambda < bl) {
      bl = lambda;
      bi = i;
    }
  }
  return IdleArgmin{bl, bi};
}

IdleArgmin idle_lambda_argmin(const double* row, const std::uint32_t* pend_n,
                              std::size_t m, double epsilon) {
  switch (active_simd_tier()) {
    case SimdTier::kAvx512:
      return idle_lambda_argmin_avx512(row, pend_n, m, epsilon);
    case SimdTier::kAvx2:
      return idle_lambda_argmin_avx2(row, pend_n, m, epsilon);
    case SimdTier::kScalar: break;
  }
  return idle_lambda_argmin_scalar(row, pend_n, m, epsilon);
}

}  // namespace simd
}  // namespace osched::util
