// Conformance suite for ros::simd (DESIGN.md "ros::simd" contract):
// every vector backend available on this host is checked against the
// scalar reference over testkit-generated inputs -- random phases,
// denormals, near-pi/2 multiples, values straddling the argument-
// reduction limit, and sizes chosen to exercise both the vector body
// and the scalar tail.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"
#include "ros/simd/simd.hpp"
#include "ros/testkit/gen.hpp"

namespace rs = ros::simd;
namespace tk = ros::testkit;
using ros::common::Rng;
using rs::cplx;

namespace {

// Sizes cover n = 0/1, sub-vector-width, width boundaries for both
// 2- and 4-lane backends, and tails of every residue.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5,  7,  8,
                                         9, 15, 16, 17, 33, 100, 257};

/// Phase generator: bulk values in a few decades, salted with the
/// hostile cases (denormals, +/-0, near k*pi/2, the kMaxVectorPhase
/// fence, and far-beyond-fence values that must take the libm path).
std::vector<double> gen_phases(Rng& rng, std::size_t n) {
  const auto bulk = tk::one_of(std::vector<tk::Gen<double>>{
      tk::uniform(-10.0, 10.0), tk::uniform(-1e4, 1e4),
      tk::uniform(-1e7, 1e7)});
  std::vector<double> out(n);
  for (auto& v : out) v = bulk(rng);
  const double specials[] = {0.0,
                             -0.0,
                             5e-324,
                             -5e-324,
                             1e-310,
                             ros::common::kPi / 2.0,
                             -ros::common::kPi,
                             3.0 * ros::common::kPi / 2.0,
                             1e6 * ros::common::kPi,
                             rs::kMaxVectorPhase - 1.0,
                             -rs::kMaxVectorPhase - 1.0,
                             6.8e7,
                             1e12,
                             -1e18};
  for (std::size_t k = 0; k < std::size(specials) && k < n; ++k) {
    out[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1))] = specials[k];
  }
  return out;
}

std::vector<double> gen_values(Rng& rng, std::size_t n, double scale) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-scale, scale);
  return out;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Backends to test against the reference.
std::vector<rs::Backend> vector_backends() {
  std::vector<rs::Backend> out;
  for (rs::Backend b : rs::available_backends()) {
    if (b != rs::Backend::scalar) out.push_back(b);
  }
  return out;
}

const rs::Ops& ref() { return rs::backend_ops(rs::Backend::scalar); }

}  // namespace

TEST(SimdConformance, AtLeastScalarIsAvailable) {
  const auto avail = rs::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), rs::Backend::scalar);
#if defined(__x86_64__)
  // SSE2 is architecturally guaranteed on x86-64; the suite must never
  // silently degrade to scalar-only coverage there.
  EXPECT_TRUE(rs::backend_runtime_supported(rs::Backend::sse2));
#endif
}

TEST(SimdConformance, SinCosWithinAbsTol) {
  Rng rng(101);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_phases(rng, n);
      std::vector<double> s0(n), c0(n), s1(n), c1(n);
      ref().sincos(x.data(), s0.data(), c0.data(), n);
      ops.sincos(x.data(), s1.data(), c1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(s1[i], s0[i], rs::kSinCosAbsTol)
            << ops.name << " sin(" << x[i] << ") n=" << n;
        EXPECT_NEAR(c1[i], c0[i], rs::kSinCosAbsTol)
            << ops.name << " cos(" << x[i] << ") n=" << n;
      }
    }
  }
}

TEST(SimdConformance, ElementwiseOpsAreLanePositionIndependent) {
  // A value must produce the same bits whatever its lane position or
  // the call's length (tails run through the padded polynomial chunk,
  // not libm). PsvaaStack::elevation_pattern leans on this: the
  // single-angle call must reproduce one lane of the swept call.
  Rng rng(707);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    const std::size_t n = 37;
    const auto x = gen_phases(rng, n);
    std::vector<double> s(n), c(n);
    ops.sincos(x.data(), s.data(), c.data(), n);
    std::vector<double> ar(n, 0.0), ai(n, 0.0);
    ops.cexp_madd(0.3, -0.7, x.data(), ar.data(), ai.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      double s1 = 0.0;
      double c1 = 0.0;
      ops.sincos(&x[i], &s1, &c1, 1);
      EXPECT_TRUE(bit_equal(s1, s[i]))
          << ops.name << " sin(" << x[i] << ") depends on position " << i;
      EXPECT_TRUE(bit_equal(c1, c[i]))
          << ops.name << " cos(" << x[i] << ") depends on position " << i;
      double ar1 = 0.0;
      double ai1 = 0.0;
      ops.cexp_madd(0.3, -0.7, &x[i], &ar1, &ai1, 1);
      EXPECT_TRUE(bit_equal(ar1, ar[i]) && bit_equal(ai1, ai[i]))
          << ops.name << " cexp_madd(" << x[i] << ") depends on position "
          << i;
    }
  }
}

TEST(SimdConformance, SinCosNonFiniteMatchesLibm) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    std::vector<double> s(3), c(3);
    ops.sincos(bad, s.data(), c.data(), 3);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(std::isnan(s[i])) << ops.name << " index " << i;
      EXPECT_TRUE(std::isnan(c[i])) << ops.name << " index " << i;
    }
  }
}

TEST(SimdConformance, CexpWithinAbsTol) {
  Rng rng(102);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_phases(rng, n);
      std::vector<double> re0(n), im0(n), re1(n), im1(n);
      ref().cexp(x.data(), re0.data(), im0.data(), n);
      ops.cexp(x.data(), re1.data(), im1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(re1[i], re0[i], rs::kSinCosAbsTol) << ops.name;
        EXPECT_NEAR(im1[i], im0[i], rs::kSinCosAbsTol) << ops.name;
      }
    }
  }
}

TEST(SimdConformance, LinearPhaseScaleAxpbyBitIdentical) {
  Rng rng(103);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const double base = rng.uniform(-1e3, 1e3);
      const double step = rng.uniform(-1.0, 1.0);
      std::vector<double> p0(n), p1(n);
      ref().linear_phase(base, step, p0.data(), n);
      ops.linear_phase(base, step, p1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(p0[i], p1[i]))
            << ops.name << " linear_phase i=" << i << " n=" << n;
      }

      const auto x = gen_values(rng, n, 1e3);
      const auto y = gen_values(rng, n, 1e3);
      const double a = rng.uniform(-2.0, 2.0);
      const double c = rng.uniform(-2.0, 2.0);
      std::vector<double> s0(n), s1(n);
      ref().scale(a, x.data(), s0.data(), n);
      ops.scale(a, x.data(), s1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(s0[i], s1[i]))
            << ops.name << " scale i=" << i;
      }
      std::vector<double> z0(n), z1(n);
      ref().axpby(a, x.data(), c, y.data(), z0.data(), n);
      ops.axpby(a, x.data(), c, y.data(), z1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(z0[i], z1[i]))
            << ops.name << " axpby i=" << i;
      }
    }
  }
}

TEST(SimdConformance, CexpMaddWithinElementTol) {
  Rng rng(104);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto p = gen_phases(rng, n);
      const double cr = rng.uniform(-2.0, 2.0);
      const double ci = rng.uniform(-2.0, 2.0);
      auto ar0 = gen_values(rng, n, 1.0);
      auto ai0 = gen_values(rng, n, 1.0);
      auto ar1 = ar0;
      auto ai1 = ai0;
      ref().cexp_madd(cr, ci, p.data(), ar0.data(), ai0.data(), n);
      ops.cexp_madd(cr, ci, p.data(), ar1.data(), ai1.data(), n);
      // Oracle: each element sees the sincos error scaled by the
      // coefficient magnitude plus a few roundings of the madd chain.
      const double tol = (std::abs(cr) + std::abs(ci)) *
                             (rs::kSinCosAbsTol + 8e-16) +
                         1e-15;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ar1[i], ar0[i], tol) << ops.name << " i=" << i;
        EXPECT_NEAR(ai1[i], ai0[i], tol) << ops.name << " i=" << i;
      }
    }
  }
}

TEST(SimdConformance, CmulAccWithinElementTol) {
  Rng rng(105);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto ar = gen_values(rng, n, 2.0);
      const auto ai = gen_values(rng, n, 2.0);
      const auto br = gen_values(rng, n, 2.0);
      const auto bi = gen_values(rng, n, 2.0);
      auto r0 = gen_values(rng, n, 1.0);
      auto i0 = gen_values(rng, n, 1.0);
      auto r1 = r0;
      auto i1 = i0;
      ref().cmul_acc(ar.data(), ai.data(), br.data(), bi.data(),
                     r0.data(), i0.data(), n);
      ops.cmul_acc(ar.data(), ai.data(), br.data(), bi.data(), r1.data(),
                   i1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        // Pure arithmetic: only FMA-contraction reorderings possible.
        const double mag = std::abs(ar[i] * br[i]) +
                           std::abs(ai[i] * bi[i]) +
                           std::abs(ar[i] * bi[i]) +
                           std::abs(ai[i] * br[i]);
        const double tol = mag * 4e-16 + 1e-15;
        EXPECT_NEAR(r1[i], r0[i], tol) << ops.name << " i=" << i;
        EXPECT_NEAR(i1[i], i0[i], tol) << ops.name << " i=" << i;
      }
    }
  }
}

TEST(SimdConformance, ToneAccWithinElementTol) {
  Rng rng(106);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const double amp = rng.uniform(0.0, 3.0);
      const double phase0 = rng.uniform(-1e3, 1e3);
      const double dphase = rng.uniform(-1.0, 1.0);
      std::vector<cplx> acc0(n), acc1(n);
      for (std::size_t i = 0; i < n; ++i) {
        acc0[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        acc1[i] = acc0[i];
      }
      ref().tone_acc(acc0.data(), amp, phase0, dphase, n);
      ops.tone_acc(acc1.data(), amp, phase0, dphase, n);
      const double tol = amp * (rs::kSinCosAbsTol + 8e-16) + 1e-15;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(acc1[i].real(), acc0[i].real(), tol)
            << ops.name << " i=" << i << " n=" << n;
        EXPECT_NEAR(acc1[i].imag(), acc0[i].imag(), tol)
            << ops.name << " i=" << i << " n=" << n;
      }
    }
  }
}

TEST(SimdConformance, ReductionsWithinReassociationBound) {
  Rng rng(107);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_values(rng, n, 10.0);
      const auto y = gen_values(rng, n, 10.0);
      const double dn = static_cast<double>(n);

      double sum_abs = 0.0;
      for (double v : x) sum_abs += std::abs(v);
      EXPECT_NEAR(ops.sum(x.data(), n), ref().sum(x.data(), n),
                  rs::kReduceRelTol * dn * sum_abs + 1e-300)
          << ops.name << " sum n=" << n;

      double dot_abs = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot_abs += std::abs(x[i] * y[i]);
      EXPECT_NEAR(ops.dot(x.data(), y.data(), n),
                  ref().dot(x.data(), y.data(), n),
                  rs::kReduceRelTol * dn * dot_abs + 1e-300)
          << ops.name << " dot n=" << n;

      const cplx cs0 = ref().csum(x.data(), y.data(), n);
      const cplx cs1 = ops.csum(x.data(), y.data(), n);
      EXPECT_NEAR(cs1.real(), cs0.real(),
                  rs::kReduceRelTol * dn * sum_abs + 1e-300)
          << ops.name;
      double sum_abs_y = 0.0;
      for (double v : y) sum_abs_y += std::abs(v);
      EXPECT_NEAR(cs1.imag(), cs0.imag(),
                  rs::kReduceRelTol * dn * sum_abs_y + 1e-300)
          << ops.name;
    }
  }
}

TEST(SimdConformance, PhaseMacAndCexpSumWithinBound) {
  Rng rng(108);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto p = gen_phases(rng, n);
      const auto ar = gen_values(rng, n, 2.0);
      const auto ai = gen_values(rng, n, 2.0);
      // Bound: per-term sincos error times the amplitude, plus the
      // lane re-association of the horizontal sum.
      double amp_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        amp_sum += std::abs(ar[i]) + std::abs(ai[i]);
      }
      const double dn = static_cast<double>(n);
      const double tol =
          amp_sum * (rs::kSinCosAbsTol + 8e-16) +
          rs::kReduceRelTol * dn * (amp_sum + 1e-300) + 1e-300;
      const cplx m0 = ref().phase_mac(ar.data(), ai.data(), p.data(), n);
      const cplx m1 = ops.phase_mac(ar.data(), ai.data(), p.data(), n);
      EXPECT_NEAR(m1.real(), m0.real(), tol)
          << ops.name << " phase_mac n=" << n;
      EXPECT_NEAR(m1.imag(), m0.imag(), tol)
          << ops.name << " phase_mac n=" << n;

      const double tol_e = dn * (rs::kSinCosAbsTol + 8e-16) +
                           rs::kReduceRelTol * dn * dn + 1e-300;
      const cplx e0 = ref().cexp_sum(p.data(), n);
      const cplx e1 = ops.cexp_sum(p.data(), n);
      EXPECT_NEAR(e1.real(), e0.real(), tol_e)
          << ops.name << " cexp_sum n=" << n;
      EXPECT_NEAR(e1.imag(), e0.imag(), tol_e)
          << ops.name << " cexp_sum n=" << n;
    }
  }
}

TEST(SimdConformance, FftButterflyWithinRelTol) {
  Rng rng(109);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      std::vector<cplx> a0(n), b0(n), w(n);
      for (std::size_t i = 0; i < n; ++i) {
        a0[i] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
        b0[i] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
        w[i] = std::polar(1.0, rng.uniform(-ros::common::kPi,
                                           ros::common::kPi));
      }
      auto a1 = a0;
      auto b1 = b0;
      ref().fft_butterfly(a0.data(), b0.data(), w.data(), n);
      ops.fft_butterfly(a1.data(), b1.data(), w.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double sa = std::abs(a0[i]) + 1e-30;
        const double sb = std::abs(b0[i]) + 1e-30;
        EXPECT_NEAR(a1[i].real(), a0[i].real(), rs::kButterflyRelTol * sa)
            << ops.name << " i=" << i;
        EXPECT_NEAR(a1[i].imag(), a0[i].imag(), rs::kButterflyRelTol * sa)
            << ops.name << " i=" << i;
        EXPECT_NEAR(b1[i].real(), b0[i].real(), rs::kButterflyRelTol * sb)
            << ops.name << " i=" << i;
        EXPECT_NEAR(b1[i].imag(), b0[i].imag(), rs::kButterflyRelTol * sb)
            << ops.name << " i=" << i;
      }
    }
  }
}

// --- awgn_acc: bit-identical on every backend ----------------------

namespace {

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

const std::vector<std::size_t> kAwgnSizes = {0,   1,   2,   3,   4,   5,
                                             255, 256, 257, 1000};
const std::uint64_t kAwgnKeys[] = {0ull, 1ull, 0x243F6A8885A308D3ull,
                                   ~0ull};
// Counter bases: 0, an Rx offset, around 2^32, and two that wrap.
const std::uint64_t kAwgnCounters[] = {0ull, 7ull * 256, 0xFFFFFFFFull,
                                       (1ull << 63) + 5, ~0ull - 2};

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

/// Non-zero accumulator base with a spread of magnitudes and signs.
std::vector<cplx> awgn_base(std::size_t n, std::uint64_t salt) {
  Rng rng(0xA5A5 + salt);
  std::vector<cplx> out(n);
  for (auto& z : out) {
    z = {rng.uniform(-3.0, 3.0) * 1e-6, rng.uniform(0.5, 2.0)};
  }
  return out;
}

/// FNV-1a (64-bit) over the little-endian bytes of re then im.
std::uint64_t fnv1a(const std::vector<cplx>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const cplx& z : v) {
    for (double x : {z.real(), z.imag()}) {
      std::uint64_t u;
      std::memcpy(&u, &x, sizeof u);
      for (int k = 0; k < 8; ++k) {
        h ^= (u >> (8 * k)) & 0xFF;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

}  // namespace

TEST(SimdConformance, AwgnAccBitIdenticalAcrossBackends) {
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::uint64_t key : kAwgnKeys) {
      for (std::uint64_t c0 : kAwgnCounters) {
        for (std::size_t n : kAwgnSizes) {
          auto want = awgn_base(n, key ^ c0);
          auto got = want;
          ref().awgn_acc(want.data(), 0.7, key, c0, n);
          ops.awgn_acc(got.data(), 0.7, key, c0, n);
          EXPECT_TRUE(same_bits(want, got))
              << ops.name << " key=" << key << " c0=" << c0 << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdConformance, AwgnAccSplitEqualsSingleCall) {
  // Sample i is counter c0 + i whatever the call boundaries: one call
  // over [0, n) equals two calls split at any point.
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::uint64_t c0 : kAwgnCounters) {
      const std::size_t n = 67;
      auto whole = awgn_base(n, c0);
      const auto base = whole;
      ops.awgn_acc(whole.data(), 1.3, 99, c0, n);
      for (std::size_t k = 0; k <= n; ++k) {
        auto split = base;
        ops.awgn_acc(split.data(), 1.3, 99, c0, k);
        ops.awgn_acc(split.data() + k, 1.3, 99, c0 + k, n - k);
        EXPECT_TRUE(same_bits(whole, split))
            << ops.name << " c0=" << c0 << " split at " << k;
      }
    }
  }
}

TEST(SimdConformance, AwgnAccAddsValueIndependentOfAcc) {
  // acc + noise == acc + (0 + noise): the synthesizer's single call and
  // a tones-then-noise replay give the same cube. No output component
  // is -0.0, so this holds for a -0.0 base too.
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    const std::size_t n = 1000;
    auto acc = awgn_base(n, 3);
    acc[0] = {-0.0, -0.0};
    acc[1] = {0.0, -0.0};
    acc[2] = {5e-324, -1e300};
    std::vector<cplx> noise(n, cplx{0.0, 0.0});
    auto want = acc;
    ops.awgn_acc(acc.data(), 2e-7, 0xFEED, 512, n);
    ops.awgn_acc(noise.data(), 2e-7, 0xFEED, 512, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (double x : {noise[i].real(), noise[i].imag()}) {
        EXPECT_FALSE(x == 0.0 && std::signbit(x)) << ops.name << " i=" << i;
      }
      want[i] = {want[i].real() + noise[i].real(),
                 want[i].imag() + noise[i].imag()};
    }
    EXPECT_TRUE(same_bits(acc, want)) << ops.name;
  }
}

TEST(SimdConformance, AwgnAccMatchesItsDefinition) {
  // Against the formula evaluated with ros::common::splitmix64 and libm:
  // u1 from the high word, u2 from the low word, both Box–Muller outputs.
  const rs::Ops& ops = ref();
  const std::size_t n = 4096;
  for (std::uint64_t key : kAwgnKeys) {
    std::vector<cplx> got(n, cplx{0.0, 0.0});
    ops.awgn_acc(got.data(), 1.0, key, 100, n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w =
          ros::common::splitmix64(key + (100 + i) * kGamma);
      const double u1 = (static_cast<double>(w >> 32) + 0.5) * 0x1p-32;
      const double u2 =
          static_cast<double>(static_cast<std::uint32_t>(w)) * 0x1p-32;
      const double r = std::sqrt(-2.0 * std::log(u1));
      const double th = 2.0 * ros::common::kPi * u2;
      // |r| <= 6.77; polynomial log/sin/cos stay within a few ulp.
      EXPECT_NEAR(got[i].real(), r * std::cos(th), 8e-15) << "i=" << i;
      EXPECT_NEAR(got[i].imag(), r * std::sin(th), 8e-15) << "i=" << i;
    }
  }
}

TEST(SimdConformance, AwgnAccPinnedValues) {
  // The first 8 samples of key 1 (counter 0, sigma 1), recorded from
  // this implementation; every backend and target must reproduce them.
  const double want[8][2] = {
      {-0x1.0a3fea691519ap+0, -0x1.ded04c72eda89p-3},
      {-0x1.386e3eabcd0bbp-1, 0x1.da03b74a67a6ep-2},
      {0x1.ed625f4f843dp-3, -0x1.d37fe0a0a8363p-6},
      {0x1.27a445b37c9a1p+0, -0x1.13098a35c9cacp-1},
      {0x1.08660fccde5fp-1, -0x1.2a1ae2300e89dp+0},
      {-0x1.5bb845b2ed2b3p-1, -0x1.21b3fb5a0e37bp-2},
      {0x1.1a8db5d1e1758p-2, -0x1.b91bfdf8edabbp-2},
      {0x1.06fd6107103e2p+0, 0x1.f66d097ec92bep-2},
  };
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    std::vector<cplx> v(8, cplx{0.0, 0.0});
    ops.awgn_acc(v.data(), 1.0, 1, 0, 8);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(bit_equal(v[i].real(), want[i][0]))
          << ops.name << " re " << i << " = " << std::hexfloat << v[i].real();
      EXPECT_TRUE(bit_equal(v[i].imag(), want[i][1]))
          << ops.name << " im " << i << " = " << std::hexfloat << v[i].imag();
    }
  }
}

TEST(SimdConformance, AwgnAccDigests) {
  // FNV-1a over 10^5 samples per key (counter 0, sigma 1, zero base).
  const std::uint64_t keys[] = {1ull, 7919ull, 0xC0FFEE123456789Aull};
  const std::uint64_t want[] = {0xA7C038D73ECDF7FDull, 0xEE4D121C40B613DFull,
                                0x2C7A9FF5CA00DFAFull};
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (int k = 0; k < 3; ++k) {
      std::vector<cplx> v(100000, cplx{0.0, 0.0});
      ops.awgn_acc(v.data(), 1.0, keys[k], 0, v.size());
      EXPECT_EQ(fnv1a(v), want[k])
          << ops.name << " key " << keys[k] << " got 0x" << std::hex
          << fnv1a(v);
    }
  }
}
