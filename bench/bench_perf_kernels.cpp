// Per-kernel SIMD speedup benchmark: times every ros::simd op on the
// scalar reference backend and on the best backend this host supports,
// reporting ns/element and the speedup ratio, then the AWGN kernel on
// every available backend, plus the grid-indexed DBSCAN against the
// all-pairs reference across point counts (the grid win must grow with
// n -- O(n) expected vs O(n^2)).
//
// Timing is machine-dependent, so the fidelity scorecard records only
// deterministic correctness invariants (vector == scalar within the
// documented tolerance, awgn_acc bit-identical on every backend, grid
// partition == reference partition); the
// speedups land in the CSV and in bench/baseline.json's history. Both
// backends are pinned explicitly through backend_ops(), so the numbers
// -- and the scorecard -- are identical whatever ROS_SIMD says.
#include "bench_util.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>

#include "ros/common/random.hpp"
#include "ros/pipeline/dbscan.hpp"
#include "ros/simd/simd.hpp"

namespace {

namespace rs = ros::simd;
using ros::common::cplx;

/// Median-of-reps wall time for fn(), in nanoseconds.
double time_ns(int reps, const std::function<void()>& fn) {
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (auto& v : t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    v = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  std::nth_element(t.begin(), t.begin() + reps / 2, t.end());
  return t[static_cast<std::size_t>(reps) / 2];
}

struct KernelBuffers {
  std::vector<double> phase, a, b, out1, out2, out3, out4;
  std::vector<cplx> acc;
  explicit KernelBuffers(std::size_t n) {
    ros::common::Rng rng(7);
    phase.resize(n);
    a.resize(n);
    b.resize(n);
    out1.resize(n);
    out2.resize(n);
    out3.resize(n);
    out4.resize(n);
    acc.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      phase[i] = rng.uniform(-40.0, 40.0);
      a[i] = rng.normal();
      b[i] = rng.normal();
    }
  }
};

}  // namespace

ROS_BENCH(perf_kernels) {
  using namespace ros;
  const std::size_t n = 4096;
  const int inner = ctx.quick() ? 40 : 200;
  const int reps = ctx.quick() ? 5 : 9;

  const rs::Ops& scalar = rs::backend_ops(rs::Backend::scalar);
  const rs::Backend best = rs::available_backends().back();
  const rs::Ops& vec = rs::backend_ops(best);

  KernelBuffers buf(n);
  struct Kernel {
    const char* name;
    std::function<void(const rs::Ops&, KernelBuffers&)> run;
  };
  const std::vector<Kernel> kernels = {
      {"sincos",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.sincos(k.phase.data(), k.out1.data(), k.out2.data(), n);
       }},
      {"cexp",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.cexp(k.phase.data(), k.out1.data(), k.out2.data(), n);
       }},
      {"cexp_madd",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.cexp_madd(0.8, -0.6, k.phase.data(), k.out3.data(),
                     k.out4.data(), n);
       }},
      {"cmul_acc",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.cmul_acc(k.a.data(), k.b.data(), k.out1.data(), k.out2.data(),
                    k.out3.data(), k.out4.data(), n);
       }},
      {"phase_mac",
       [n](const rs::Ops& o, KernelBuffers& k) {
         k.acc[0] += o.phase_mac(k.a.data(), k.b.data(), k.phase.data(), n);
       }},
      {"cexp_sum",
       [n](const rs::Ops& o, KernelBuffers& k) {
         k.acc[0] += o.cexp_sum(k.phase.data(), n);
       }},
      {"tone_acc",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.tone_acc(k.acc.data(), 1e-3, 0.37, 0.011, n);
       }},
      {"axpby",
       [n](const rs::Ops& o, KernelBuffers& k) {
         o.axpby(1.1, k.a.data(), -0.9, k.b.data(), k.out1.data(), n);
       }},
      {"dot",
       [n](const rs::Ops& o, KernelBuffers& k) {
         k.out1[0] += o.dot(k.a.data(), k.b.data(), n);
       }},
  };

  common::CsvTable table(
      "perf: ros::simd kernels, scalar vs " + std::string(vec.name) +
          " (ns per element, n=4096)",
      {"kernel", "scalar_ns_elem", "vector_ns_elem", "speedup"});
  int fast_kernels = 0;
  double worst_err = 0.0;
  for (const auto& k : kernels) {
    // Correctness first: vector output within the documented tolerance
    // of the scalar reference on the same inputs.
    KernelBuffers sb(n);
    KernelBuffers vb(n);
    k.run(scalar, sb);
    k.run(vec, vb);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale =
          1.0 + std::abs(sb.out1[i]) + std::abs(sb.out2[i]) +
          std::abs(sb.out3[i]) + std::abs(sb.out4[i]) + std::abs(sb.acc[i]);
      const double err =
          (std::abs(sb.out1[i] - vb.out1[i]) +
           std::abs(sb.out2[i] - vb.out2[i]) +
           std::abs(sb.out3[i] - vb.out3[i]) +
           std::abs(sb.out4[i] - vb.out4[i]) +
           std::abs(sb.acc[i] - vb.acc[i])) /
          scale;
      worst_err = std::max(worst_err, err);
    }

    const double t_s = time_ns(reps, [&] {
      for (int i = 0; i < inner; ++i) k.run(scalar, sb);
      bench::do_not_optimize(sb.out1[0]);
    });
    const double t_v = time_ns(reps, [&] {
      for (int i = 0; i < inner; ++i) k.run(vec, vb);
      bench::do_not_optimize(vb.out1[0]);
    });
    const double per_elem = static_cast<double>(n) * inner;
    const double speedup = t_s / t_v;
    fast_kernels += speedup >= 3.0;
    table.add_row(k.name, {t_s / per_elem, t_v / per_elem, speedup});
  }
  bench::print(ctx, table);

  // AWGN: one lane per backend. The kernel is specified bit for bit, so
  // every backend must add exactly the scalar reference's bits.
  common::CsvTable atable(
      "perf: awgn_acc per backend (ns per complex draw, n=4096)",
      {"backend", "ns_per_draw", "bit_identical"});
  std::vector<cplx> awgn_ref(n, cplx{0.0, 0.0});
  scalar.awgn_acc(awgn_ref.data(), 0.5, 0xA5, 3, n);
  bool awgn_identical = true;
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& o = rs::backend_ops(b);
    std::vector<cplx> v(n, cplx{0.0, 0.0});
    o.awgn_acc(v.data(), 0.5, 0xA5, 3, n);
    const bool same =
        std::memcmp(v.data(), awgn_ref.data(), n * sizeof(cplx)) == 0;
    awgn_identical = awgn_identical && same;
    const double t = time_ns(reps, [&] {
      for (int i = 0; i < inner; ++i) {
        o.awgn_acc(v.data(), 1e-6, static_cast<std::uint64_t>(i), 0, n);
      }
      bench::do_not_optimize(v[0]);
    });
    atable.add_row(o.name, {t / (static_cast<double>(n) * inner),
                            same ? 1.0 : 0.0});
  }
  bench::print(ctx, atable);

  // DBSCAN: grid index vs the retained all-pairs reference. The ratio
  // must grow with n; correctness (identical partition on the same
  // cloud) is the deterministic fidelity check.
  common::CsvTable dtable(
      "perf: DBSCAN grid index vs all-pairs reference",
      {"n_points", "grid_ms", "reference_ms", "speedup"});
  bool partitions_match = true;
  const std::vector<std::size_t> sizes =
      ctx.quick() ? std::vector<std::size_t>{1000, 4000}
                  : std::vector<std::size_t>{1000, 4000, 12000};
  for (std::size_t np : sizes) {
    common::Rng rng(3);
    std::vector<scene::Vec2> pts(np);
    for (auto& p : pts) {
      p = {rng.normal(0.0, 4.0), rng.normal(0.0, 4.0)};
    }
    const pipeline::DbscanOptions opts{0.2, 6};
    std::vector<int> lg, lr;
    const double t_g = time_ns(3, [&] { lg = pipeline::dbscan(pts, opts); });
    const double t_r =
        time_ns(3, [&] { lr = pipeline::dbscan_reference(pts, opts); });
    // The reference assigns border points by BFS arrival order, so
    // compare the order-independent facts: noise set and cluster count.
    partitions_match =
        partitions_match &&
        pipeline::cluster_count(lg) == pipeline::cluster_count(lr);
    for (std::size_t i = 0; partitions_match && i < np; ++i) {
      partitions_match = (lg[i] < 0) == (lr[i] < 0);
    }
    dtable.add_row({static_cast<double>(np), t_g * 1e-6, t_r * 1e-6,
                    t_r / t_g});
  }
  bench::print(ctx, dtable);

  ctx.fidelity("simd_kernels_match_scalar",
               worst_err <= 1e-12 && awgn_identical ? 1.0 : 0.0, 1.0, 1.0,
               "vector backends within documented tolerance of scalar; "
               "awgn_acc bit-identical on every backend");
  ctx.fidelity("dbscan_grid_matches_reference",
               partitions_match ? 1.0 : 0.0, 1.0, 1.0,
               "grid index reproduces the all-pairs clustering");
  bench::do_not_optimize(fast_kernels);
}
