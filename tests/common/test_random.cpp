#include "ros/common/random.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rc = ros::common;

TEST(Random, Deterministic) {
  rc::Rng a(42);
  rc::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Random, DifferentSeedsDiffer) {
  rc::Rng a(1);
  rc::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Random, UniformBounds) {
  rc::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Random, UniformIntBounds) {
  rc::Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(0, 4);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 4);
    saw_lo |= (x == 0);
    saw_hi |= (x == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, NormalMoments) {
  rc::Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Random, BernoulliFrequency) {
  rc::Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Random, SplitMix64IsDeterministicAndMixes) {
  EXPECT_EQ(rc::splitmix64(1), rc::splitmix64(1));
  // Adjacent inputs avalanche to far-apart outputs.
  EXPECT_NE(rc::splitmix64(1), rc::splitmix64(2));
  EXPECT_NE(rc::splitmix64(0), 0u);
}

TEST(Random, DeriveStreamSeedIsCounterBased) {
  // Stream k of a master seed is a pure function of (seed, k): no state,
  // no dependence on other streams having been derived first.
  EXPECT_EQ(rc::derive_stream_seed(42, 7), rc::derive_stream_seed(42, 7));
  EXPECT_NE(rc::derive_stream_seed(42, 7), rc::derive_stream_seed(42, 8));
  EXPECT_NE(rc::derive_stream_seed(42, 7), rc::derive_stream_seed(43, 7));
}

TEST(Random, AdjacentStreamsDecorrelate) {
  rc::Rng a(rc::derive_stream_seed(1, 0));
  rc::Rng b(rc::derive_stream_seed(1, 1));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Random, InvalidArgumentsThrow) {
  rc::Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

// --- property checks (ros::testkit) ---------------------------------

#include "ros/testkit/property.hpp"

namespace tk = ros::testkit;

TEST(Random, PropertyStreamsAreCounterIndependent) {
  // Stream i's draws depend only on (master, i): interleaving draws
  // from other streams must not perturb it. This is the contract the
  // parallel frame loop and the property harness both rely on.
  ROS_PROPERTY(
      "stream independence",
      tk::tuple_of(tk::uniform_int(0, 1 << 20), tk::uniform_int(0, 1000),
                   tk::uniform_int(1, 16)),
      [](const std::tuple<int, int, int>& t) {
        const auto [master, stream, interleave] = t;
        rc::Rng clean(rc::derive_stream_seed(
            static_cast<std::uint64_t>(master),
            static_cast<std::uint64_t>(stream)));
        // "Dirty" run: burn draws from neighboring streams first.
        for (int s = 0; s < interleave; ++s) {
          rc::Rng other(rc::derive_stream_seed(
              static_cast<std::uint64_t>(master),
              static_cast<std::uint64_t>(stream + s + 1)));
          (void)other.uniform(0.0, 1.0);
        }
        rc::Rng again(rc::derive_stream_seed(
            static_cast<std::uint64_t>(master),
            static_cast<std::uint64_t>(stream)));
        for (int i = 0; i < 16; ++i) {
          if (clean.uniform(0.0, 1.0) != again.uniform(0.0, 1.0)) {
            return false;
          }
        }
        return true;
      });
}

TEST(Random, PropertyUniformIntCoversInclusiveRange) {
  ROS_PROPERTY(
      "uniform_int bounds",
      tk::tuple_of(tk::uniform_int(-50, 50), tk::uniform_int(0, 100),
                   tk::uniform_int(0, 1 << 20)),
      [](const std::tuple<int, int, int>& t) -> std::string {
        const auto [lo, width, seed] = t;
        const int hi = lo + width;
        rc::Rng rng(static_cast<std::uint64_t>(seed));
        for (int i = 0; i < 32; ++i) {
          const int v = rng.uniform_int(lo, hi);
          if (v < lo || v > hi) {
            return "uniform_int(" + std::to_string(lo) + ", " +
                   std::to_string(hi) + ") produced " + std::to_string(v);
          }
        }
        return "";
      });
}
