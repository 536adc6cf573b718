// Zero-allocation acceptance for the interrogation frame loops (ISSUE
// acceptance criterion): after a warmup run, decode_drive's per-frame
// processing must neither grow the per-thread arenas (exec.arena.grows
// flat) nor allocate beyond the per-frame *output* storage (range
// profiles kept for the RSS sampler), as measured by the ros::obs
// allocation hook.
#include <gtest/gtest.h>

#include "ros/obs/alloc.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/streaming.hpp"
#include "../support/stream_equality.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;
using ros::teststream::run_decode;
using ros::teststream::run_full;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::StraightDrive short_drive() {
  return rs::StraightDrive({.lane_offset_m = 3.0,
                            .speed_mps = 2.0,
                            .start_x_m = -1.0,
                            .end_x_m = 1.0});
}

rs::Scene make_world() {
  rs::Scene world;
  world.add_tag(rt::make_default_tag({true, false, true, true}, &stackup(),
                                     32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  world.add_clutter(rs::tripod_params({1.3, 0.4}));
  return world;
}

std::uint64_t arena_grows() {
  return ros::obs::MetricsRegistry::global()
      .counter("exec.arena.grows")
      .value();
}

double gauge(const char* name) {
  return ros::obs::MetricsRegistry::global().gauge(name).value();
}

}  // namespace

TEST(ZeroAlloc, DecodeDriveSteadyStateDoesNotGrowArenas) {
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  // Warmup: sizes every thread-local workspace, arena, window table,
  // and FFT plan for this configuration.
  const auto warm = rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  ASSERT_GT(warm.samples.size(), 0u);

  const std::uint64_t grows_before = arena_grows();
  const auto steady =
      rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state decode_drive grew a scratch arena";
  // Identical inputs must reproduce the warmup result exactly.
  ASSERT_EQ(steady.samples.size(), warm.samples.size());
  EXPECT_EQ(steady.decode.bits, warm.decode.bits);
  EXPECT_EQ(steady.mean_rss_dbm, warm.mean_rss_dbm);
}

TEST(ZeroAlloc, DecodeDriveFrameLoopAllocsAreOutputOnly) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const double warm_allocs =
      gauge("decode_drive.frame_loop.allocs_per_frame");
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const double steady_allocs =
      gauge("decode_drive.frame_loop.allocs_per_frame");

  // The only steady-state allocations are the retained per-frame range
  // profile (one outer vector + one per Rx channel = 5 for the IWR1443)
  // plus a constant sliver of harness noise. Anything that scales with
  // samples-per-frame or returns-per-frame would blow well past this.
  EXPECT_LE(steady_allocs, 16.0)
      << "decode_drive allocates per frame beyond its output profile";
  EXPECT_LE(steady_allocs, warm_allocs + 1.0)
      << "steady state should never allocate more than warmup";
}

TEST(ZeroAlloc, InterrogateFrameLoopAllocsAreBounded) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  const rp::Interrogator inter(cfg);

  (void)inter.run(world, short_drive());
  const std::uint64_t grows_before = arena_grows();
  (void)inter.run(world, short_drive());
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state interrogation grew a scratch arena";
  // Both Tx passes retain profiles and the detector emits point lists,
  // so the budget is larger than decode_drive's but still O(1) per
  // frame (~2 profiles + 2 detection vectors + CFAR/cloud slivers).
  EXPECT_LE(gauge("interrogate.frame_loop.allocs_per_frame"), 64.0);
}

TEST(ZeroAlloc, CodebookBackendSteadyStateDoesNotGrowArenas) {
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  cfg.decoder.backend = rt::DecoderBackend::codebook;

  const std::uint64_t misses_before =
      ros::obs::MetricsRegistry::global()
          .counter("pipeline.decoder.codebook.cache_misses")
          .value();
  // Warmup also pays the cold codebook build exactly once.
  const auto warm = rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  ASSERT_GT(warm.samples.size(), 0u);
  ASSERT_FALSE(warm.decode.codeword_scores.empty());

  const std::uint64_t grows_before = arena_grows();
  const std::uint64_t misses_after_warm =
      ros::obs::MetricsRegistry::global()
          .counter("pipeline.decoder.codebook.cache_misses")
          .value();
  const auto steady =
      rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state codebook decode grew a scratch arena";
  // The cold build is charged once at warmup, never per read.
  EXPECT_EQ(ros::obs::MetricsRegistry::global()
                .counter("pipeline.decoder.codebook.cache_misses")
                .value(),
            misses_after_warm)
      << "steady-state decode rebuilt the codebook";
  EXPECT_LE(misses_after_warm - misses_before, 1u);
  EXPECT_EQ(steady.decode.bits, warm.decode.bits);
  EXPECT_EQ(steady.decode.codeword_scores, warm.decode.codeword_scores);
}

TEST(ZeroAlloc, CodebookBackendFrameLoopAllocsAreOutputOnly) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  cfg.decoder.backend = rt::DecoderBackend::codebook;

  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  // Same budget as the fft backend: the matched filter's scratch lives
  // in the per-thread arena, so swapping decoders must not move the
  // frame-loop allocation count.
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0)
      << "codebook decode allocates inside the frame loop";
}

TEST(ZeroAlloc, BudgetsHoldWithFlightRecorderLive) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // The v2 acceptance bar: the flight recorder must be on (its default)
  // while the zero-alloc budgets above are met — sampled frame markers,
  // RNG-seed breadcrumbs, and watchdog arms ride inside the budget.
  auto& fr = ros::obs::FlightRecorder::global();
  ASSERT_TRUE(fr.enabled())
      << "flight recorder should be on by default in tests";
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const std::uint64_t recorded_before = fr.total_recorded();
  const std::uint64_t grows_before = arena_grows();
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(arena_grows(), grows_before);
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0);
  // And it actually recorded something during the run (sampled frame
  // events plus the end-of-run arena high-water mark).
  EXPECT_GT(fr.total_recorded(), recorded_before);
}

TEST(ZeroAlloc, StreamingDecodeLoopStaysInsideBatchBudget) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // The engine's options must not buy latency with garbage: a
  // windowed, early-emit, sample-dropping decode-mode engine carries the
  // SAME per-frame allocation budget as decode_drive (sample/series
  // storage is reserved up front; the emit-time decode runs once).
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  cfg.decode_fov_rad = 1.0;
  rp::StreamingOptions opts;
  opts.window_frames = 3;
  opts.early_emit = true;
  opts.retain_samples = false;

  (void)run_decode(world, short_drive(), {0.0, 0.0}, cfg, opts);
  const std::uint64_t grows_before = arena_grows();
  const auto steady = run_decode(world, short_drive(), {0.0, 0.0}, cfg, opts);
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state streaming decode grew a scratch arena";
  EXPECT_TRUE(steady.samples.empty());
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0)
      << "streaming decode allocates per frame beyond its output profile";
}

TEST(ZeroAlloc, StreamingFullLoopAllocsAreBounded) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // A bounded window evicts as it goes; its frame loop stays O(1) per
  // frame like the unbounded one (two retained profiles plus detection
  // output per frame) with a small incremental-DBSCAN surcharge
  // (grid-cell vectors as new eps-cells come alive).
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  rp::StreamingOptions opts;
  opts.window_frames = 8;

  (void)run_full(world, short_drive(), cfg, opts);
  const std::uint64_t grows_before = arena_grows();
  (void)run_full(world, short_drive(), cfg, opts);
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state streaming interrogation grew a scratch arena";
  EXPECT_LE(gauge("interrogate.frame_loop.allocs_per_frame"), 80.0);
}

TEST(ZeroAlloc, BudgetsHoldWithProvenanceProbeArmed) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // Decode-forensics invariant: every probe tap sits OUTSIDE the
  // parallel frame loop, so arming the probe — even in capture-heavy
  // failure mode — must not move the per-frame allocation budget. A tap
  // migrating into the loop would show up here immediately.
  namespace probe = ros::obs::probe;
  const probe::Mode saved = probe::mode();
  probe::set_mode(probe::Mode::failure);
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const std::uint64_t grows_before = arena_grows();
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  probe::set_mode(saved);
  EXPECT_EQ(arena_grows(), grows_before)
      << "probe capture grew a scratch arena from the frame loop";
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0)
      << "probe capture allocated inside the frame loop";
}
