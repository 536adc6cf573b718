// Serial/parallel equivalence of the hot paths built on ros::exec: the
// same inputs must produce bit-identical outputs at ROS_THREADS=1 and
// ROS_THREADS=4. This is the contract that makes the parallel runtime
// safe to enable by default. The interrogation entry points must also
// equal the naive serial reference in ros/testkit/reference.hpp at both
// thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ros/antenna/beam_shaping.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/optim/differential_evolution.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/testkit/reference.hpp"
#include "../support/stream_equality.hpp"

namespace ra = ros::antenna;
namespace re = ros::exec;
namespace ro = ros::optim;
namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;

namespace {

/// Restore the default global pool however the test exits.
struct ThreadsGuard {
  ~ThreadsGuard() { re::ThreadPool::set_global_threads(re::default_threads()); }
};

/// Run `fn` once on a 1-executor global pool and once on a 4-executor
/// pool; return both results.
template <typename Fn>
auto serial_and_parallel(Fn&& fn) {
  ThreadsGuard guard;
  re::ThreadPool::set_global_threads(1);
  auto serial = fn();
  re::ThreadPool::set_global_threads(4);
  auto parallel = fn();
  return std::pair{std::move(serial), std::move(parallel)};
}

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::Scene tag_world(const std::vector<bool>& bits) {
  rs::Scene world;
  world.add_tag(rt::make_default_tag(bits, &stackup(), 32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  return world;
}

rs::StraightDrive default_drive() {
  return rs::StraightDrive({.lane_offset_m = 3.0,
                            .speed_mps = 2.0,
                            .start_x_m = -2.5,
                            .end_x_m = 2.5});
}

rp::InterrogatorConfig fast_config() {
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  return cfg;
}

double sphere(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return s;
}

void expect_same_samples(const std::vector<rp::RssSample>& a,
                         const std::vector<rp::RssSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u) << "sample " << i;
    EXPECT_EQ(a[i].rss_dbm, b[i].rss_dbm) << "sample " << i;
    EXPECT_EQ(a[i].rss_w, b[i].rss_w) << "sample " << i;
    EXPECT_EQ(a[i].range_m, b[i].range_m) << "sample " << i;
    EXPECT_EQ(a[i].frame, b[i].frame) << "sample " << i;
  }
}

}  // namespace

TEST(ExecDeterminism, InterrogatorRunIsThreadCountInvariant) {
  const rs::Scene world = tag_world({true, false, true, true});
  const rp::Interrogator inter(fast_config());
  const auto [a, b] = serial_and_parallel(
      [&] { return inter.run(world, default_drive()); });

  EXPECT_EQ(a.n_frames, b.n_frames);
  ASSERT_EQ(a.cloud.points.size(), b.cloud.points.size());
  for (std::size_t i = 0; i < a.cloud.points.size(); ++i) {
    EXPECT_EQ(a.cloud.points[i].world.x, b.cloud.points[i].world.x);
    EXPECT_EQ(a.cloud.points[i].world.y, b.cloud.points[i].world.y);
    EXPECT_EQ(a.cloud.points[i].rss_dbm, b.cloud.points[i].rss_dbm);
    EXPECT_EQ(a.cloud.points[i].frame, b.cloud.points[i].frame);
  }
  EXPECT_EQ(a.clusters.size(), b.clusters.size());
  EXPECT_EQ(a.candidates.size(), b.candidates.size());
  ASSERT_EQ(a.tags.size(), b.tags.size());
  for (std::size_t t = 0; t < a.tags.size(); ++t) {
    EXPECT_EQ(a.tags[t].decode.bits, b.tags[t].decode.bits);
    EXPECT_EQ(a.tags[t].decode.slot_amplitudes,
              b.tags[t].decode.slot_amplitudes);
    expect_same_samples(a.tags[t].samples, b.tags[t].samples);
  }
  const auto ref = ros::testkit::reference_interrogate(
      world, default_drive(), fast_config());
  EXPECT_EQ(ros::teststream::diff_report(a, ref), "");
  EXPECT_EQ(ros::teststream::diff_report(b, ref), "");
}

TEST(ExecDeterminism, DecodeDriveIsThreadCountInvariant) {
  const rs::Scene world = tag_world({true, false, true, true});
  const auto [a, b] = serial_and_parallel([&] {
    return rp::decode_drive(world, default_drive(), {0.0, 0.0},
                            fast_config());
  });
  EXPECT_EQ(a.decode.bits, b.decode.bits);
  EXPECT_EQ(a.decode.slot_amplitudes, b.decode.slot_amplitudes);
  EXPECT_EQ(a.mean_rss_dbm, b.mean_rss_dbm);
  expect_same_samples(a.samples, b.samples);
  const auto ref = ros::testkit::reference_decode_drive(
      world, default_drive(), {0.0, 0.0}, fast_config());
  EXPECT_EQ(ros::teststream::diff_decode_drive(a, ref), "");
  EXPECT_EQ(ros::teststream::diff_decode_drive(b, ref), "");
}

TEST(ExecDeterminism, DifferentialEvolutionIsThreadCountInvariant) {
  const std::vector<ro::Bounds> bounds(3, {-2.0, 2.0});
  ro::DeConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 40;
  cfg.patience = 40;
  cfg.seed = 123;
  const auto [a, b] =
      serial_and_parallel([&] { return ro::minimize(sphere, bounds, cfg); });
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.mean_history, b.mean_history);
}

TEST(ExecDeterminism, BeamShapingIsThreadCountInvariant) {
  ro::DeConfig de;
  de.population = 12;
  de.max_generations = 6;
  de.patience = 6;
  de.seed = 3;
  const auto [a, b] = serial_and_parallel(
      [&] { return ra::shape_elevation_beam(8, {}, {}, &stackup(), de); });
  EXPECT_EQ(a.phase_weights_rad, b.phase_weights_rad);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.ripple_db, b.ripple_db);
  EXPECT_EQ(a.mean_gain_db, b.mean_gain_db);
  EXPECT_EQ(a.achieved_beamwidth_rad, b.achieved_beamwidth_rad);
  EXPECT_EQ(a.de.history, b.de.history);
}
