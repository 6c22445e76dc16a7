#include "util/simd_argmin.hpp"

#include <algorithm>
#include <limits>

#include "util/types.hpp"

namespace osched::util {

const char* to_string(SimdTier) { return "scalar"; }

SimdTier active_simd_tier() { return SimdTier::kScalar; }

namespace simd {

void lb_fill(const double* row, const float* pcm, const float* pmp,
             float coeff, float* lb, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    const float p = float_lower(row[i]);
    lb[i] = p * coeff + pcm[i] * std::min(p, pmp[i]);
  }
}

namespace {

/// Resolves the first index attaining gmin with a block-skipping scan:
/// earlier blocks whose bmin exceeds the minimum cannot contain it.
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

ArgminResult block_minima_argmin(const float* lb, std::size_t m, float* bmin) {
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

IdleArgmin idle_lambda_argmin(const double* row, const std::uint32_t* pend_n,
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

}  // namespace simd
}  // namespace osched::util
