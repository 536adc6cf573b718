#include "ros/dsp/fft.hpp"

#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

#include "ros/common/expect.hpp"
#include "ros/common/units.hpp"
#include "ros/simd/simd.hpp"

namespace ros::dsp {

using ros::common::kPi;

std::size_t next_pow2(std::size_t n) {
  ROS_EXPECT(n >= 1, "size must be positive");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// Radix-2 plan for one size: the bit-reversal permutation and, for
/// each stage, a contiguous twiddle array (forward and inverse). The
/// classic layout reads twiddle[k * stride] inside the butterfly --
/// a strided gather the simd butterfly can't stream -- so the plan
/// unrolls each stage's twiddles into its own dense array once.
/// The pipeline transforms the same handful of sizes over and over
/// (one per chirp configuration), so recomputing this trig per call
/// dominated small-FFT cost.
struct Pow2Plan {
  std::vector<std::size_t> bitrev;
  /// stage_fwd[s] has len/2 entries for len = 2^(s+1):
  /// exp(-2 pi j k / len), k < len/2. stage_inv is the conjugate.
  std::vector<std::vector<cplx>> stage_fwd;
  std::vector<std::vector<cplx>> stage_inv;
};

/// Plans are cached per thread: lookups need no locking under the
/// ros::exec pool, and identical inputs produce bit-identical plans on
/// every thread, so results never depend on which thread ran the
/// transform. The cache is bounded; an adversarial size sequence just
/// rebuilds plans as before.
const Pow2Plan& pow2_plan(std::size_t n) {
  thread_local std::unordered_map<std::size_t, Pow2Plan> cache;
  if (cache.size() > 32) cache.clear();
  const auto [it, inserted] = cache.try_emplace(n);
  if (inserted) {
    Pow2Plan& plan = it->second;
    plan.bitrev.assign(n, 0);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      plan.bitrev[i] = j;
    }
    // Base twiddles exp(-2 pi j k / n), gathered per stage so the
    // butterfly reads them contiguously. Gathering (rather than
    // re-deriving per stage) keeps the values bit-identical to the
    // strided-lookup implementation this replaced.
    std::vector<cplx> twiddle(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      twiddle[k] =
          std::polar(1.0, -2.0 * kPi * static_cast<double>(k) /
                              static_cast<double>(n));
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t stride = n / len;
      std::vector<cplx> fwd(len / 2);
      std::vector<cplx> inv(len / 2);
      for (std::size_t k = 0; k < len / 2; ++k) {
        fwd[k] = twiddle[k * stride];
        inv[k] = std::conj(twiddle[k * stride]);
      }
      plan.stage_fwd.push_back(std::move(fwd));
      plan.stage_inv.push_back(std::move(inv));
    }
  }
  return it->second;
}

}  // namespace

void fft_pow2_inplace(std::span<cplx> x, bool inverse) {
  const std::size_t n = x.size();
  ROS_EXPECT(n > 0 && (n & (n - 1)) == 0, "size must be a power of two");
  const Pow2Plan& plan = pow2_plan(n);
  const auto& bfly = ros::simd::ops().fft_butterfly;

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }

  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
    const std::vector<cplx>& tw =
        inverse ? plan.stage_inv[stage] : plan.stage_fwd[stage];
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      bfly(&x[i], &x[i + half], tw.data(), half);
    }
  }

  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv;
  }
}

void fft_pow2_inplace(std::vector<cplx>& x, bool inverse) {
  fft_pow2_inplace(std::span<cplx>(x), inverse);
}

namespace {

/// Everything in Bluestein's transform that depends only on (n,
/// inverse): the chirp, the padded size m, and the forward FFT of the
/// zero-padded conjugate-chirp kernel. Amortizes two of the three
/// pow2 FFTs plus the chirp trig across repeated same-size calls.
struct BluesteinPlan {
  std::size_t m = 0;
  std::vector<cplx> chirp;
  std::vector<cplx> kernel_fft;
};

const BluesteinPlan& bluestein_plan(std::size_t n, bool inverse) {
  thread_local std::map<std::pair<std::size_t, bool>, BluesteinPlan> cache;
  if (cache.size() > 32) cache.clear();
  const auto [it, inserted] = cache.try_emplace(std::pair{n, inverse});
  if (inserted) {
    BluesteinPlan& plan = it->second;
    const double sign = inverse ? 1.0 : -1.0;
    // Chirp: w[k] = exp(sign * j * pi * k^2 / n). Use k^2 mod 2n to
    // keep the argument small for large k.
    plan.chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto k2 = static_cast<double>((k * k) % (2 * n));
      plan.chirp[k] =
          std::polar(1.0, sign * kPi * k2 / static_cast<double>(n));
    }
    plan.m = next_pow2(2 * n - 1);
    std::vector<cplx> b(plan.m, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k) {
      b[k] = std::conj(plan.chirp[k]);
      if (k != 0) b[plan.m - k] = std::conj(plan.chirp[k]);
    }
    fft_pow2_inplace(b);
    plan.kernel_fft = std::move(b);
  }
  return it->second;
}

/// Bluestein chirp-z transform for arbitrary N.
std::vector<cplx> bluestein(std::span<const cplx> x, bool inverse) {
  const std::size_t n = x.size();
  const BluesteinPlan& plan = bluestein_plan(n, inverse);

  std::vector<cplx> a(plan.m, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * plan.chirp[k];
  fft_pow2_inplace(a);
  for (std::size_t k = 0; k < plan.m; ++k) a[k] *= plan.kernel_fft[k];
  fft_pow2_inplace(a, /*inverse=*/true);

  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * plan.chirp[k];
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv;
  }
  return out;
}

}  // namespace

std::vector<cplx> fft(std::span<const cplx> x) {
  ROS_EXPECT(!x.empty(), "fft input must be non-empty");
  const std::size_t n = x.size();
  if ((n & (n - 1)) == 0) {
    std::vector<cplx> out(x.begin(), x.end());
    fft_pow2_inplace(out);
    return out;
  }
  return bluestein(x, /*inverse=*/false);
}

std::vector<cplx> ifft(std::span<const cplx> x) {
  ROS_EXPECT(!x.empty(), "ifft input must be non-empty");
  const std::size_t n = x.size();
  if ((n & (n - 1)) == 0) {
    std::vector<cplx> out(x.begin(), x.end());
    fft_pow2_inplace(out, /*inverse=*/true);
    return out;
  }
  return bluestein(x, /*inverse=*/true);
}

std::vector<double> magnitude(std::span<const cplx> x) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::abs(x[i]);
  return out;
}

std::vector<double> power(std::span<const cplx> x) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::norm(x[i]);
  return out;
}

}  // namespace ros::dsp
