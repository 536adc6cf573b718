// Statistical acceptance of the thermal-noise kernel
// (ros::simd::Ops::awgn_acc, DESIGN.md §7 "Noise definition").
//
// Under the null hypothesis each quadrature is i.i.d. N(0, sigma²).
// Every threshold below is 5 standard deviations of its estimator under
// that hypothesis, computed from the sample size alone:
//   mean              sd = 1/sqrt(N)
//   variance          sd = sqrt(2/N)
//   kurtosis m4/m2²   sd = sqrt(24/N)
//   correlation       sd = 1/sqrt(M) for M pairs
//   KS statistic      sqrt(n_eff)·D has the Kolmogorov distribution
//                     (mean 0.8687, sd 0.2603): limit 0.8687 + 5·0.2603.
// The backends are bit-identical (SimdConformance.AwgnAcc*), so the
// active one stands for all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"
#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/simd/simd.hpp"

namespace rr = ros::radar;
namespace rc = ros::common;
using rc::cplx;

namespace {

constexpr double kSd = 5.0;
constexpr double kKsLimit = 0.8687 + kSd * 0.2603;

std::vector<cplx> noise(std::uint64_t key, std::uint64_t counter0,
                        std::size_t n) {
  std::vector<cplx> v(n, cplx{0.0, 0.0});
  ros::simd::ops().awgn_acc(v.data(), 1.0, key, counter0, n);
  return v;
}

double correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cxy = sxy / n - (sx / n) * (sy / n);
  const double cxx = sxx / n - (sx / n) * (sx / n);
  const double cyy = syy / n - (sy / n) * (sy / n);
  return cxy / std::sqrt(cxx * cyy);
}

/// Correlation of re with re and im with im over paired samples.
void expect_uncorrelated(const std::vector<cplx>& a,
                         const std::vector<cplx>& b, const char* what) {
  std::vector<double> ar, ai, br, bi;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ar.push_back(a[i].real());
    ai.push_back(a[i].imag());
    br.push_back(b[i].real());
    bi.push_back(b[i].imag());
  }
  const double tol = kSd / std::sqrt(static_cast<double>(a.size()));
  EXPECT_LT(std::abs(correlation(ar, br)), tol) << what << " (re)";
  EXPECT_LT(std::abs(correlation(ai, bi)), tol) << what << " (im)";
  EXPECT_LT(std::abs(correlation(ar, bi)), tol) << what << " (re/im)";
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Two-sample KS statistic sup |F_a - F_b|.
double ks_two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

}  // namespace

TEST(AwgnStatistics, QuadratureMomentsMatchUnitNormal) {
  const std::size_t n = 1 << 20;
  const auto v = noise(0x5EED, 0, n);
  const auto dn = static_cast<double>(n);
  for (int q = 0; q < 2; ++q) {
    double s1 = 0.0, s2 = 0.0, s4 = 0.0;
    for (const cplx& z : v) {
      const double x = q == 0 ? z.real() : z.imag();
      s1 += x;
      s2 += x * x;
      s4 += x * x * x * x;
    }
    const double mean = s1 / dn;
    const double m2 = s2 / dn;
    EXPECT_LT(std::abs(mean), kSd / std::sqrt(dn)) << "quadrature " << q;
    EXPECT_LT(std::abs(m2 - 1.0), kSd * std::sqrt(2.0 / dn))
        << "quadrature " << q;
    EXPECT_LT(std::abs((s4 / dn) / (m2 * m2) - 3.0),
              kSd * std::sqrt(24.0 / dn))
        << "quadrature " << q;
  }
}

TEST(AwgnStatistics, QuadraturesAndNeighboursUncorrelated) {
  const std::size_t n = 1 << 20;
  const auto v = noise(0xC0DE, 0, n + 1);
  std::vector<double> re, im;
  for (std::size_t i = 0; i < n; ++i) {
    re.push_back(v[i].real());
    im.push_back(v[i].imag());
  }
  EXPECT_LT(std::abs(correlation(re, im)),
            kSd / std::sqrt(static_cast<double>(n)))
      << "re vs im of a sample";
  expect_uncorrelated(std::vector<cplx>(v.begin(), v.end() - 1),
                      std::vector<cplx>(v.begin() + 1, v.end()),
                      "lag 1 along samples");
}

TEST(AwgnStatistics, AdjacentRxChannelsUncorrelated) {
  // One key per frame, Rx k at counters k·n_s + i: pair sample i of
  // Rx k with sample i of Rx k + 1, over 512 frames of 8 × 256.
  const std::size_t n_s = 256;
  const std::size_t n_rx = 8;
  std::vector<cplx> a, b;
  for (std::uint64_t f = 0; f < 512; ++f) {
    const std::uint64_t key = rc::derive_stream_seed(17, f);
    const auto cube = noise(key, 0, n_rx * n_s);
    for (std::size_t k = 0; k + 1 < n_rx; ++k) {
      a.insert(a.end(), cube.begin() + k * n_s,
               cube.begin() + (k + 1) * n_s);
      b.insert(b.end(), cube.begin() + (k + 1) * n_s,
               cube.begin() + (k + 2) * n_s);
    }
  }
  expect_uncorrelated(a, b, "adjacent Rx offsets");
}

TEST(AwgnStatistics, AdjacentKeysUncorrelated) {
  // Keys K and K + 1 at the same counters, for 64 consecutive K.
  std::vector<cplx> a, b;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto x = noise(0x1234 + k, 0, 16384);
    const auto y = noise(0x1234 + k + 1, 0, 16384);
    a.insert(a.end(), x.begin(), x.end());
    b.insert(b.end(), y.begin(), y.end());
  }
  expect_uncorrelated(a, b, "adjacent keys");
}

TEST(AwgnStatistics, KolmogorovSmirnovAgainstNormal) {
  // 2^21 quadratures (2^20 complex draws) against Φ.
  const auto v = noise(0xBEEF, 0, 1 << 20);
  std::vector<double> x;
  x.reserve(2 * v.size());
  for (const cplx& z : v) {
    x.push_back(z.real());
    x.push_back(z.imag());
  }
  std::sort(x.begin(), x.end());
  const auto n = static_cast<double>(x.size());
  double d = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double f = normal_cdf(x[i]);
    d = std::max({d, std::abs(f - static_cast<double>(i) / n),
                  std::abs(static_cast<double>(i + 1) / n - f)});
  }
  EXPECT_LT(std::sqrt(n) * d, kKsLimit);
  // The tail bound: |quadrature| <= sqrt(2·ln 2^33).
  EXPECT_LE(std::max(-x.front(), x.back()),
            std::sqrt(66.0 * std::log(2.0)));
}

TEST(AwgnStatistics, SpotlightRssMatchesReferenceNoise) {
  // Spotlight RSS at the tag's bins near the decode cliff (tone power
  // about twice the beamformed noise floor), with noise from the
  // synthesizer's kernel vs a reference built from Rng::normal.
  const auto chirp = rr::FmcwChirp::ti_iwr1443();
  const auto array = rr::RadarArray::ti_iwr1443();
  const rr::WaveformSynthesizer synth(chirp, array);
  ros::scene::RadarPose pose;
  pose.position = {0.0, 3.0};
  pose.boresight = {0.0, -1.0};
  const ros::scene::Vec2 target{0.4, -1.0};
  const double noise_w = 1e-12;
  rr::ScatterReturn ret;
  ret.amplitude = std::sqrt(2.0 * 1.5 / chirp.n_samples / array.n_rx *
                            noise_w);
  ret.range_m = (target - pose.position).norm();
  ret.azimuth_rad = pose.azimuth_to(target);
  const std::vector<rr::ScatterReturn> returns{ret};

  const std::size_t frames = 10000;
  const double sigma = std::sqrt(noise_w / 2.0);
  rr::FrameCube cube;
  rr::RangeProfile profile;
  ros::pipeline::RssSample s;
  std::vector<double> kernel_rss, reference_rss;
  for (std::size_t f = 0; f < frames; ++f) {
    rc::Rng rng(rc::derive_stream_seed(23, f));
    synth.synthesize_into(returns, noise_w, rng, cube);
    rr::range_fft_into(cube, chirp, ros::dsp::Window::hann, profile);
    ASSERT_TRUE(ros::pipeline::sample_rss_frame(
        profile, pose, target, {1.0, 0.0}, array, chirp.center_hz(), f, s));
    kernel_rss.push_back(s.rss_w);

    synth.synthesize_into(returns, 0.0, rng, cube);
    for (auto& chan : cube) {
      for (cplx& z : chan) {
        const double re = rng.normal(0.0, sigma);
        z += cplx{re, rng.normal(0.0, sigma)};
      }
    }
    rr::range_fft_into(cube, chirp, ros::dsp::Window::hann, profile);
    ASSERT_TRUE(ros::pipeline::sample_rss_frame(
        profile, pose, target, {1.0, 0.0}, array, chirp.center_hz(), f, s));
    reference_rss.push_back(s.rss_w);
  }
  const double n_eff = static_cast<double>(frames) / 2.0;
  EXPECT_LT(std::sqrt(n_eff) * ks_two_sample(kernel_rss, reference_rss),
            kKsLimit);
}
