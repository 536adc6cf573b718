#include "ros/dsp/cfar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ros/common/random.hpp"

namespace rd = ros::dsp;

TEST(Cfar, DetectsStrongTargetInFlatNoise) {
  std::vector<double> p(64, 1.0);
  p[30] = 100.0;
  const auto dets = rd::ca_cfar(p, {});
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].index, 30u);
  EXPECT_NEAR(dets[0].snr_db, 20.0, 0.5);
}

TEST(Cfar, IgnoresWeakBumps) {
  std::vector<double> p(64, 1.0);
  p[30] = 3.0;  // only ~4.8 dB over the noise, below the 10 dB threshold
  EXPECT_TRUE(rd::ca_cfar(p, {}).empty());
}

TEST(Cfar, ThresholdIsRelativeToLocalNoise) {
  // Same 12 dB bump over two different noise floors: both detected.
  std::vector<double> p(100, 1.0);
  for (std::size_t i = 50; i < 100; ++i) p[i] = 100.0;
  p[20] = 16.0;
  p[80] = 1600.0;
  const auto dets = rd::ca_cfar(p, {});
  std::vector<std::size_t> idx;
  for (const auto& d : dets) idx.push_back(d.index);
  EXPECT_NE(std::find(idx.begin(), idx.end(), 20u), idx.end());
  EXPECT_NE(std::find(idx.begin(), idx.end(), 80u), idx.end());
}

TEST(Cfar, GuardCellsProtectWideTargets) {
  std::vector<double> p(64, 1.0);
  // A 3-cell-wide target: skirts in guard cells must not mask the peak.
  p[30] = 50.0;
  p[31] = 100.0;
  p[32] = 50.0;
  rd::CfarOptions opts;
  opts.guard_cells = 2;
  const auto dets = rd::ca_cfar(p, opts);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].index, 31u);
}

TEST(Cfar, FalseAlarmRateLowOnPureNoise) {
  ros::common::Rng rng(5);
  std::vector<double> p(4096);
  // |z|^2 of a unit-power complex normal: two quadratures of variance 1/2.
  const double sigma = std::sqrt(0.5);
  for (auto& v : p) {
    const double re = rng.normal(0.0, sigma);
    const double im = rng.normal(0.0, sigma);
    v = re * re + im * im;
  }
  const auto dets = rd::ca_cfar(p, {});
  // 10 dB threshold on exponential noise: P(X > 10 mu) ~ 4.5e-5, but the
  // local-max requirement and finite training average raise it slightly.
  EXPECT_LT(dets.size(), 10u);
}

TEST(Cfar, DetectionCarriesNoiseEstimate) {
  std::vector<double> p(64, 2.0);
  p[30] = 200.0;
  const auto dets = rd::ca_cfar(p, {});
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_NEAR(dets[0].noise_level, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(dets[0].value, 200.0);
}

TEST(Cfar, InvalidOptionsThrow) {
  std::vector<double> p(8, 1.0);
  rd::CfarOptions opts;
  opts.training_cells = 0;
  EXPECT_THROW(rd::ca_cfar(p, opts), std::invalid_argument);
}
