// Pins ros::common::Rng to recorded streams, bit for bit.
//
// The digests and vectors below were recorded from the std::mt19937_64 +
// libstdc++ distribution build that the scene, tracking, layout and
// DE-GA draws of the repository's goldens, corpus and benchmark
// baselines were made with. The generator this repository defines must
// reproduce every one of them, on every target: CI also runs these
// tests in a build with FMA contraction enabled globally. (Thermal
// noise is ros::simd::Ops::awgn_acc, pinned in test_simd_conformance.)

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"

namespace rc = ros::common;

namespace {

// FNV-1a (64-bit) over the little-endian bytes of each draw.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(std::uint64_t u) {
    for (int k = 0; k < 8; ++k) byte(static_cast<unsigned char>(u >> (8 * k)));
  }
  void f64(double x) { u64(std::bit_cast<std::uint64_t>(x)); }
  void c128(rc::cplx z) {
    f64(z.real());
    f64(z.imag());
  }
  void i32(int x) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int k = 0; k < 4; ++k) byte(static_cast<unsigned char>(u >> (8 * k)));
  }
  void b1(bool x) { byte(x ? 1 : 0); }
};

enum class Case {
  kNormal,
  kNormalScaled,
  kUniformUnit,
  kUniformRange,
  kIntDigit,
  kIntSigned,
  kIntFullRange,
  kIntSingleton,
  kIntOddRange,
  kBernoulli,
  kBernoulliNever,
  kBernoulliAlways,
  kMixed,
};
constexpr int kNumCases = 13;
constexpr int kDraws = 100000;

struct Pin {
  std::uint64_t digest;
  std::uint64_t next_raw;  // engine output right after the case
};

Pin run_case(Case c, std::uint64_t seed) {
  rc::Rng rng(seed);
  Fnv fnv;
  switch (c) {
    case Case::kNormal:
      for (int i = 0; i < kDraws; ++i) fnv.f64(rng.normal());
      break;
    case Case::kNormalScaled:
      for (int i = 0; i < kDraws; ++i) fnv.f64(rng.normal(-1.25, 0.3));
      break;
    case Case::kUniformUnit:
      for (int i = 0; i < kDraws; ++i) fnv.f64(rng.uniform(0.0, 1.0));
      break;
    case Case::kUniformRange:
      for (int i = 0; i < kDraws; ++i) fnv.f64(rng.uniform(-3.5, 12.25));
      break;
    case Case::kIntDigit:
      for (int i = 0; i < kDraws; ++i) fnv.i32(rng.uniform_int(0, 9));
      break;
    case Case::kIntSigned:
      for (int i = 0; i < kDraws; ++i) fnv.i32(rng.uniform_int(-5, 5));
      break;
    case Case::kIntFullRange:
      for (int i = 0; i < kDraws; ++i) {
        fnv.i32(rng.uniform_int(std::numeric_limits<int>::min(),
                                std::numeric_limits<int>::max()));
      }
      break;
    case Case::kIntSingleton:
      for (int i = 0; i < kDraws; ++i) fnv.i32(rng.uniform_int(3, 3));
      break;
    case Case::kIntOddRange:
      for (int i = 0; i < kDraws; ++i) fnv.i32(rng.uniform_int(-17, 1000003));
      break;
    case Case::kBernoulli:
      for (int i = 0; i < kDraws; ++i) fnv.b1(rng.bernoulli(0.3));
      break;
    case Case::kBernoulliNever:
      for (int i = 0; i < kDraws; ++i) fnv.b1(rng.bernoulli(0.0));
      break;
    case Case::kBernoulliAlways:
      for (int i = 0; i < kDraws; ++i) fnv.b1(rng.bernoulli(1.0));
      break;
    case Case::kMixed:
      // Every call type interleaved, so draws start at every offset of
      // the refill batch.
      for (int i = 0; i < kDraws; ++i) {
        switch (i % 7) {
          case 0: fnv.f64(rng.normal(0.5, 2.0)); break;
          case 1: fnv.i32(rng.uniform_int(-100, 100)); break;
          case 2: {
            // Recorded as complex_gaussian(1.5): two normals of
            // stddev sqrt(1.5 / 2), re first.
            const double re = rng.normal(0.0, std::sqrt(0.75));
            fnv.c128({re, rng.normal(0.0, std::sqrt(0.75))});
            break;
          }
          case 3: fnv.b1(rng.bernoulli(0.5)); break;
          case 4: fnv.f64(rng.uniform(-1.0, 1.0)); break;
          case 5: fnv.u64(rng.next_u64()); break;
          default: fnv.f64(rng.normal()); break;
        }
      }
      break;
  }
  return {fnv.h, rng.next_u64()};
}

// Recorded with the seeds below, kDraws draws per case.
constexpr std::uint64_t kSeeds[] = {0ull, 1ull, 7919ull, 0xC0FFEE123456789Aull};
// kPins[seed][case] = {digest, next raw draw}
constexpr Pin kPins[4][kNumCases] = {
    {
        {0xD81FA1D1CBFE8E8Full, 0x84EDE983592410DFull},
        {0x1BE193D729E43C2Bull, 0x84EDE983592410DFull},
        {0x1939873AECDC14D8ull, 0xBBFEBA46D0B7D549ull},
        {0x22A8443122DD3D7Dull, 0xBBFEBA46D0B7D549ull},
        {0x8A7165CAC16BC914ull, 0xBBFEBA46D0B7D549ull},
        {0x44F453FE4518AA4Bull, 0xBBFEBA46D0B7D549ull},
        {0xF34C6515165007E4ull, 0xBBFEBA46D0B7D549ull},
        {0x45E83D6CED6C1225ull, 0xBBFEBA46D0B7D549ull},
        {0xF6CD4BD5A74471A6ull, 0xBBFEBA46D0B7D549ull},
        {0xC33E3E910C829FD5ull, 0xBBFEBA46D0B7D549ull},
        {0x61B94018DF3E37A5ull, 0xBBFEBA46D0B7D549ull},
        {0xB91C41E2263CCA45ull, 0xBBFEBA46D0B7D549ull},
        {0xC3451E17A323AE90ull, 0xE55C37DE353B16D9ull},
    },
    {
        {0xBE0057AC58A54A21ull, 0x78BB9836B016D9B0ull},
        {0x2BC1556C3BD449FBull, 0x78BB9836B016D9B0ull},
        {0xA83B84D0EA300931ull, 0x3AEEB3D26177F7F6ull},
        {0x7CEF55C8CA3EDCD2ull, 0x3AEEB3D26177F7F6ull},
        {0xB2F940F75A8B2B01ull, 0x3AEEB3D26177F7F6ull},
        {0xE39C0C97248A39EEull, 0x3AEEB3D26177F7F6ull},
        {0xBA67CA7F3186316Full, 0x3AEEB3D26177F7F6ull},
        {0x45E83D6CED6C1225ull, 0x3AEEB3D26177F7F6ull},
        {0x768B0F4C8F7F2E99ull, 0x3AEEB3D26177F7F6ull},
        {0x5D3EDF3AC1881FC6ull, 0x3AEEB3D26177F7F6ull},
        {0x61B94018DF3E37A5ull, 0x3AEEB3D26177F7F6ull},
        {0xB91C41E2263CCA45ull, 0x3AEEB3D26177F7F6ull},
        {0x799A481DC1991266ull, 0xD59243B47C53D10Eull},
    },
    {
        {0xBD037404C9B92FC0ull, 0xFB4CB390665DFE35ull},
        {0x630B6FAB5C842F19ull, 0xFB4CB390665DFE35ull},
        {0x8A0AE37F476D7E9Dull, 0x636E804B24F00131ull},
        {0xB8B6BB5B9ED0E39Bull, 0x636E804B24F00131ull},
        {0x29BB53EF34844B17ull, 0x636E804B24F00131ull},
        {0x01AEB5F2BB1031FFull, 0x636E804B24F00131ull},
        {0x01FB40B778E002C0ull, 0x636E804B24F00131ull},
        {0x45E83D6CED6C1225ull, 0x636E804B24F00131ull},
        {0x3AF90938E5F6E31Eull, 0x636E804B24F00131ull},
        {0xDCCECD4519059456ull, 0x636E804B24F00131ull},
        {0x61B94018DF3E37A5ull, 0x636E804B24F00131ull},
        {0xB91C41E2263CCA45ull, 0x636E804B24F00131ull},
        {0x57DACB229C621B99ull, 0x96489569B50B8697ull},
    },
    {
        {0x70488613CE29DD66ull, 0xEEA5B9B2ADC2DDE6ull},
        {0x2DD2F69D1C8A7545ull, 0xEEA5B9B2ADC2DDE6ull},
        {0xAEA4988DA7D1255Aull, 0x024239F87BC2212Bull},
        {0x29C64C43E9EAAB92ull, 0x024239F87BC2212Bull},
        {0xD603AC8E5C9B3C48ull, 0x024239F87BC2212Bull},
        {0xD90A4B237910475Eull, 0x024239F87BC2212Bull},
        {0x86167AB4F47A12C9ull, 0x024239F87BC2212Bull},
        {0x45E83D6CED6C1225ull, 0x024239F87BC2212Bull},
        {0x13E731695953FC10ull, 0x024239F87BC2212Bull},
        {0xBBA62B430F91EFEAull, 0x024239F87BC2212Bull},
        {0x61B94018DF3E37A5ull, 0x024239F87BC2212Bull},
        {0xB91C41E2263CCA45ull, 0x024239F87BC2212Bull},
        {0x823A9837CA24A0F8ull, 0x256B8A90EF9722D6ull},
    },
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(RandomPin, Mt19937_64TenThousandthOutput) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  rc::Rng rng(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = rng.next_u64();
  EXPECT_EQ(x, 9981545732273789042ull);
}

TEST(RandomPin, FirstDrawsOfSeedOne) {
  {
    rc::Rng rng(1);
    const std::uint64_t raw[] = {0x2245BD5FBB686F68ull, 0x22EB92502318FA4Eull,
                                 0x7382D1E77AE6459Aull, 0x0561D8057935C08Eull};
    for (std::uint64_t want : raw) EXPECT_EQ(rng.next_u64(), want);
  }
  {
    rc::Rng rng(1);
    const double want[] = {-0x1.8c1da014dda1p-2,  0x1.5fa75918ca314p-1,
                           -0x1.971d689089fddp-1, 0x1.f01d3e119ca68p+0,
                           0x1.e15bc7159ee3dp-4,  -0x1.4bec5ef0151f1p-1,
                           -0x1.862918a96f613p+0, 0x1.d3d936bb14019p-1};
    for (double w : want) EXPECT_EQ(bits(rng.normal()), bits(w));
  }
  {
    rc::Rng rng(1);
    const double want[] = {0x1.122deafddb438p-3, 0x1.175c928118c7dp-3,
                           0x1.ce0b479deb991p-2, 0x1.5876015e4d702p-6,
                           0x1.6751d5cbb3f1ap-2, 0x1.d29d85a57326dp-1,
                           0x1.e20cd8d6456f4p-2, 0x1.30d84f91bf14bp-4};
    for (double w : want) EXPECT_EQ(bits(rng.uniform(0.0, 1.0)), bits(w));
  }
  {
    rc::Rng rng(1);
    for (int w : {-4, -4, -1, -5, -2, 5, 0, -5}) {
      EXPECT_EQ(rng.uniform_int(-5, 5), w);
    }
  }
  {
    rc::Rng rng(1);
    for (bool w : {true, true, false, true, false, false, false, true}) {
      EXPECT_EQ(rng.bernoulli(0.3), w);
    }
  }
}

TEST(RandomPin, DigestsMatchRecordedStreams) {
  for (int s = 0; s < 4; ++s) {
    for (int c = 0; c < kNumCases; ++c) {
      SCOPED_TRACE("seed " + std::to_string(kSeeds[s]) + " case " +
                   std::to_string(c));
      const Pin got = run_case(static_cast<Case>(c), kSeeds[s]);
      EXPECT_EQ(got.digest, kPins[s][c].digest);
      EXPECT_EQ(got.next_raw, kPins[s][c].next_raw);
    }
  }
}
