// The generator behind ros::common::Rng.
//
// Engine: mt19937_64 per [rand.eng.mers] (Matsumoto & Nishimura, TOMACS
// 1998), refilled and tempered 312 words at a time. Distributions are
// the algorithms libstdc++ 11+ uses, so seeds recorded against a
// std::mt19937_64 + std:: distribution build keep their draws:
//   canonical  x * 2^-64 with x converted exactly, clamped below 1;
//   uniform    u * (hi - lo) + lo;
//   uniform_int  Lemire's nearly-divisionless method, 128-bit product;
//   bernoulli  u < p;
//   normal     Marsaglia-Bray polar method, returning y * mult from each
//              accepted pair (the x * mult spare is never used).
// Built with -ffp-contract=off: a fused x*x + y*y would change the
// accept/reject decision and the draws with it. Thermal noise (AWGN) is
// not drawn here: it is the counter-addressed ros::simd::Ops::awgn_acc
// kernel, keyed by one next_u64() word per frame.

#include "ros/common/random.hpp"

#include <algorithm>
#include <cmath>

#include "ros/common/expect.hpp"

namespace ros::common {

namespace {

constexpr std::size_t kShift = 156;  // mt19937_64 m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)

std::uint64_t twist(std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ull;
  z ^= (z << 17) & 0x71D67FFFEDA60000ull;
  z ^= (z << 37) & 0xFFF7EEE000000000ull;
  return z ^ (z >> 43);
}

// Exact uint64 -> double as one rounding of hi * 2^32 + lo (both terms
// are exact), scaled into [0, 1). Rounding can reach 1.0; clamp it.
double to_canonical(std::uint64_t x) {
  const double v = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
                       0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min(v * 0x1p-64, kBelowOne);
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // Mix the counter before combining so that adjacent streams of the
  // same seed land in unrelated parts of the seed space, then finalize.
  return splitmix64(seed ^ splitmix64(stream + 0x632BE59BD9B4E019ull));
}

Rng::Rng(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 0x5851F42D4C957F2Dull * (prev ^ (prev >> 62)) + i;
  }
}

void Rng::refill() {
  constexpr std::size_t n = kStateWords;
  std::size_t k = 0;
  for (; k < n - kShift; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - n]);
  }
  state_[n - 1] = twist(state_[n - 1], state_[0], state_[kShift - 1]);
  for (k = 0; k < n; ++k) out_[k] = temper(state_[k]);
  next_ = 0;
}

double Rng::canonical() { return to_canonical(next_u64()); }

double Rng::polar_normal() {
  for (;;) {
    const double x = 2.0 * canonical() - 1.0;
    const double y = 2.0 * canonical() - 1.0;
    const double r2 = x * x + y * y;
    if (r2 <= 1.0 && r2 != 0.0) {
      return y * std::sqrt(-2.0 * std::log(r2) / r2);
    }
  }
}

double Rng::uniform(double lo, double hi) {
  ROS_EXPECT(lo <= hi, "uniform range must be ordered");
  return canonical() * (hi - lo) + lo;
}

int Rng::uniform_int(int lo, int hi) {
  ROS_EXPECT(lo <= hi, "uniform_int range must be ordered");
  using u128 = unsigned __int128;
  // Widening to 64 bits first keeps the span of [INT_MIN, INT_MAX].
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  u128 product = u128{next_u64()} * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = u128{next_u64()} * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<int>(static_cast<std::uint64_t>(product >> 64) +
                          static_cast<std::uint64_t>(lo));
}

double Rng::normal(double mean, double stddev) {
  ROS_EXPECT(stddev >= 0.0, "stddev must be non-negative");
  return polar_normal() * stddev + mean;
}

bool Rng::bernoulli(double p) {
  ROS_EXPECT(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
  return canonical() < p;
}

}  // namespace ros::common
