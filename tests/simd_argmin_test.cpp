// Checks for the dispatch kernels (util/simd_argmin.hpp) against naive
// loops, over rows that include the dispatch path's full value zoo:
// ordinary positives, exact ties, denormals, 0.0, FLT_MAX, +inf, and
// all-infinity rows, plus (for the double rows lb_fill rounds down) values
// no float represents and values beyond FLT_MAX. NaN and -0.0 are excluded
// BY CONTRACT (the dispatch rows never contain them). Values are compared
// by bit pattern, indices exactly. The rotating OSCHED_FUZZ_SEED hook
// explores fresh rows every CI run, reproducibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "fuzz_seed.hpp"
#include "util/simd_argmin.hpp"
#include "util/types.hpp"

namespace osched::util {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("simd_argmin_test", 523);
}

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Sizes straddling the kernels' 8-wide block boundary: empty, sub-block
// tails, exact multiples, odd block counts, a large row.
const std::size_t kSizes[] = {0,  1,  2,  3,  7,  8,   9,   15,  16, 17,
                              23, 24, 31, 32, 33, 63,  64,  65,  96, 127,
                              128, 129, 255, 256, 257, 1000};

/// A float from the dispatch-value zoo: mostly ordinary positives with
/// heavy tie mass, spiced with 0, denormals, FLT_MAX and +inf.
float fuzz_value(std::mt19937_64& rng) {
  const std::uint64_t kind = rng() % 16;
  if (kind == 0) return 0.0f;
  if (kind == 1) return std::numeric_limits<float>::infinity();
  if (kind == 2) return FLT_MAX;
  if (kind == 3) return std::numeric_limits<float>::denorm_min();
  if (kind == 4) return FLT_MIN / 2;  // a larger denormal
  // Quantized coarse grid => many exact cross-lane ties.
  return 0.25f * static_cast<float>(rng() % 64 + 1);
}

/// A double p-row entry: the float zoo widened, plus doubles that round
/// either way on conversion, a subnormal-range double and one past FLT_MAX.
double fuzz_row_value(std::mt19937_64& rng) {
  const std::uint64_t kind = rng() % 8;
  if (kind == 0) return 1.0 + static_cast<double>(rng() % 1000) * 1e-9;
  if (kind == 1) return 1e-300;
  if (kind == 2) return 1e39;
  return static_cast<double>(fuzz_value(rng));
}

TEST(SimdArgmin, LbFillMatchesNaiveLoop) {
  std::mt19937_64 rng(base_seed() + 1);
  for (const std::size_t m : kSizes) {
    for (int round = 0; round < 8; ++round) {
      std::vector<double> row(m);
      std::vector<float> pcm(m), pmp(m);
      for (std::size_t i = 0; i < m; ++i) {
        row[i] = fuzz_row_value(rng);
        // pcm is a small count-like factor, pmp a size-like one.
        pcm[i] = static_cast<float>(rng() % 5);
        pmp[i] = fuzz_value(rng);
      }
      const float coeff = 0.5f * static_cast<float>(rng() % 8 + 1);
      std::vector<float> lb(m, -2.0f);
      simd::lb_fill(row.data(), pcm.data(), pmp.data(), coeff, lb.data(), m);
      for (std::size_t i = 0; i < m; ++i) {
        const float p = float_lower(row[i]);
        const float product = pcm[i] * std::min(p, pmp[i]);
        const float expected = p * coeff + product;
        ASSERT_EQ(bits_of(lb[i]), bits_of(expected))
            << "m=" << m << " i=" << i << " row=" << row[i]
            << " pcm=" << pcm[i] << " pmp=" << pmp[i];
      }
    }
  }
}

TEST(SimdArgmin, BlockMinimaArgminMatchesNaiveLoop) {
  std::mt19937_64 rng(base_seed() + 2);
  for (const std::size_t m : kSizes) {
    for (int round = 0; round < 8; ++round) {
      std::vector<float> lb(m);
      for (float& v : lb) v = fuzz_value(rng);
      // Every few rounds, a row with no entry at or below the FLT_MAX seed.
      if (round % 4 == 3) {
        std::fill(lb.begin(), lb.end(), std::numeric_limits<float>::infinity());
      }
      const std::size_t full = m / 8;
      std::vector<float> bmin(full, -2.0f);
      const simd::ArgminResult got =
          simd::block_minima_argmin(lb.data(), m, bmin.data());

      float expected = FLT_MAX;
      for (const float v : lb) expected = std::min(expected, v);
      std::size_t expected_index = m;
      for (std::size_t i = 0; i < m; ++i) {
        if (lb[i] == expected) {
          expected_index = i;
          break;
        }
      }
      ASSERT_EQ(bits_of(got.value), bits_of(expected)) << "m=" << m;
      ASSERT_EQ(got.index, expected_index) << "m=" << m;
      for (std::size_t b = 0; b < full; ++b) {
        const float block = *std::min_element(lb.begin() + b * 8,
                                              lb.begin() + b * 8 + 8);
        ASSERT_EQ(bits_of(bmin[b]), bits_of(block))
            << "m=" << m << " block=" << b;
      }
    }
  }
}

TEST(SimdArgmin, BlockMinimaAllInfinityRow) {
  // Rows of pure +inf: the minimum stays at the FLT_MAX seed and the index
  // reports m ("nothing at or below the seed").
  for (const std::size_t m : {std::size_t{5}, std::size_t{8}, std::size_t{24},
                              std::size_t{33}}) {
    std::vector<float> lb(m, std::numeric_limits<float>::infinity());
    std::vector<float> bmin(m / 8);
    const simd::ArgminResult got =
        simd::block_minima_argmin(lb.data(), m, bmin.data());
    EXPECT_EQ(bits_of(got.value), bits_of(FLT_MAX)) << "m=" << m;
    EXPECT_EQ(got.index, m) << "m=" << m;
  }
}

TEST(SimdArgmin, BlockMinimaFirstIndexOnTies) {
  // Hand-built tie patterns: the SAME minimum in several lanes and blocks;
  // the kernel must report the FIRST index.
  const std::size_t m = 40;
  std::vector<float> lb(m, 7.0f);
  for (const std::size_t first : {std::size_t{0}, std::size_t{3},
                                  std::size_t{8}, std::size_t{17},
                                  std::size_t{33}, std::size_t{39}}) {
    std::vector<float> row = lb;
    for (std::size_t i = first; i < m; i += 5) row[i] = 1.5f;  // many ties
    std::vector<float> bmin(m / 8);
    const simd::ArgminResult got =
        simd::block_minima_argmin(row.data(), m, bmin.data());
    EXPECT_EQ(got.index, first) << "first=" << first;
    EXPECT_EQ(bits_of(got.value), bits_of(1.5f));
  }
}

TEST(SimdArgmin, IdleLambdaArgminMatchesNaiveLoop) {
  std::mt19937_64 rng(base_seed() + 3);
  const double epsilons[] = {0.2, 0.25, 1.0 / 3.0};
  for (const std::size_t m : kSizes) {
    for (int round = 0; round < 8; ++round) {
      std::vector<double> row(m);
      std::vector<std::uint32_t> pend(m);
      for (std::size_t i = 0; i < m; ++i) {
        // Positive finite doubles with tie mass (the row is effective
        // processing — never inf on the dense dispatch path).
        row[i] = 0.125 * static_cast<double>(rng() % 96 + 1);
        pend[i] = static_cast<std::uint32_t>(rng() % 3);  // ~1/3 idle
      }
      const double epsilon = epsilons[round % 3];
      const simd::IdleArgmin got =
          simd::idle_lambda_argmin(row.data(), pend.data(), m, epsilon);

      double expected = std::numeric_limits<double>::infinity();
      std::size_t expected_index = m;
      for (std::size_t i = 0; i < m; ++i) {
        if (pend[i] != 0) continue;
        const double lambda = row[i] / epsilon + row[i];
        if (lambda < expected) {
          expected = lambda;
          expected_index = i;
        }
      }
      ASSERT_EQ(got.index, expected_index) << "m=" << m << " round=" << round;
      ASSERT_EQ(bits_of(got.lambda), bits_of(expected))
          << "m=" << m << " round=" << round;
    }
  }
}

TEST(SimdArgmin, IdleLambdaNoIdleMachine) {
  // All machines busy: index m, lambda +infinity.
  for (const std::size_t m : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                              std::size_t{21}}) {
    std::vector<double> row(m, 2.0);
    std::vector<std::uint32_t> pend(m, 1);
    const simd::IdleArgmin got =
        simd::idle_lambda_argmin(row.data(), pend.data(), m, 0.25);
    EXPECT_EQ(got.index, m) << "m=" << m;
    EXPECT_TRUE(std::isinf(got.lambda)) << "m=" << m;
  }
}

}  // namespace
}  // namespace osched::util
