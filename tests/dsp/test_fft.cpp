#include "ros/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"

namespace rd = ros::dsp;
using ros::common::cplx;
using ros::common::kPi;

TEST(Fft, NextPow2) {
  EXPECT_EQ(rd::next_pow2(1), 1u);
  EXPECT_EQ(rd::next_pow2(2), 2u);
  EXPECT_EQ(rd::next_pow2(3), 4u);
  EXPECT_EQ(rd::next_pow2(255), 256u);
  EXPECT_EQ(rd::next_pow2(256), 256u);
  EXPECT_EQ(rd::next_pow2(257), 512u);
}

TEST(Fft, DeltaTransformsToFlat) {
  std::vector<cplx> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto X = rd::fft(x);
  for (const auto& v : X) EXPECT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<cplx> x(n);
  const int k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(2.0, 2.0 * kPi * k0 * static_cast<double>(i) / n);
  }
  const auto X = rd::fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == static_cast<std::size_t>(k0)) {
      EXPECT_NEAR(std::abs(X[k]), 2.0 * n, 1e-8);
    } else {
      EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, LinearityHolds) {
  ros::common::Rng rng(3);
  std::vector<cplx> a(32);
  std::vector<cplx> b(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = {rng.normal(), rng.normal()};
    b[i] = {rng.normal(), rng.normal()};
  }
  std::vector<cplx> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = a[i] + 2.0 * b[i];
  const auto A = rd::fft(a);
  const auto B = rd::fft(b);
  const auto S = rd::fft(sum);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(S[i] - (A[i] + 2.0 * B[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  ros::common::Rng rng(7);
  std::vector<cplx> x(128);
  double t = 0.0;
  for (auto& v : x) {
    v = {rng.normal(), rng.normal()};
    t += std::norm(v);
  }
  const auto X = rd::fft(x);
  double f = 0.0;
  for (const auto& v : X) f += std::norm(v);
  EXPECT_NEAR(f / static_cast<double>(x.size()), t, 1e-6 * t);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  ros::common::Rng rng(n);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto y = rd::ifft(rd::fft(x));
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-8) << "n=" << n << " i=" << i;
  }
}

// Power-of-two sizes exercise radix-2; the rest exercise Bluestein,
// including primes and highly composite odd sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16,
                                           27, 64, 100, 127, 128, 255, 256,
                                           257, 500, 1001));

TEST(Fft, BluesteinMatchesDirectDft) {
  const std::size_t n = 23;
  ros::common::Rng rng(9);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto X = rd::fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    cplx direct{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      direct += x[i] * std::polar(1.0, -2.0 * kPi * static_cast<double>(k) *
                                            static_cast<double>(i) /
                                            static_cast<double>(n));
    }
    EXPECT_NEAR(std::abs(X[k] - direct), 0.0, 1e-8);
  }
}

TEST(Fft, MagnitudeAndPower) {
  const std::vector<cplx> x = {{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(rd::magnitude(x)[0], 5.0);
  EXPECT_DOUBLE_EQ(rd::power(x)[0], 25.0);
}

TEST(Fft, EmptyInputThrows) {
  const std::vector<cplx> empty;
  EXPECT_THROW(rd::fft(empty), std::invalid_argument);
  EXPECT_THROW(rd::ifft(empty), std::invalid_argument);
}

// --- property checks (ros::testkit) ---------------------------------

#include "ros/testkit/property.hpp"

namespace tk = ros::testkit;

namespace {

/// Random complex signal: length from the whole supported regime
/// (power-of-two radix-2 path AND odd-length Bluestein path).
tk::Gen<std::vector<cplx>> signal_gen() {
  return tk::uniform_int(2, 96).and_then([](int n) {
    return tk::vector_of(
        tk::pair_of(tk::uniform(-5.0, 5.0), tk::uniform(-5.0, 5.0)), n)
        .map([](const std::vector<std::pair<double, double>>& re_im) {
          std::vector<cplx> x(re_im.size());
          for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] = {re_im[i].first, re_im[i].second};
          }
          return x;
        });
  });
}

}  // namespace

TEST(Fft, PropertyIfftInvertsFftAtEveryLength) {
  ROS_PROPERTY("ifft . fft = id", signal_gen(),
               [](const std::vector<cplx>& x) -> std::string {
                 const auto y = rd::ifft(rd::fft(x));
                 if (y.size() != x.size()) return "size changed";
                 for (std::size_t i = 0; i < x.size(); ++i) {
                   if (std::abs(y[i] - x[i]) > 1e-8) {
                     return "mismatch at index " + std::to_string(i) +
                            " for n=" + std::to_string(x.size());
                   }
                 }
                 return "";
               });
}

TEST(Fft, PropertyParsevalAtEveryLength) {
  ROS_PROPERTY("parseval", signal_gen(),
               [](const std::vector<cplx>& x) -> std::string {
                 double t = 0.0;
                 for (const auto& v : x) t += std::norm(v);
                 const auto X = rd::fft(x);
                 double f = 0.0;
                 for (const auto& v : X) f += std::norm(v);
                 f /= static_cast<double>(x.size());
                 if (std::abs(f - t) > 1e-7 * (1.0 + t)) {
                   return "energy " + std::to_string(t) + " vs " +
                          std::to_string(f) + " at n=" +
                          std::to_string(x.size());
                 }
                 return "";
               });
}
