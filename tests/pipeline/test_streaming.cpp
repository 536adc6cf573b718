// StreamingInterrogator behavior tests: equivalence with the naive
// ros::testkit reference on the fixture scenes, prefix consistency, the
// early-emit laws (emit equals the reference decode; no retraction),
// degenerate frame counts, the shared frame driver at 1 and 4 threads,
// bounded-window clustering, frame-rate validation at every entry
// point, and the probe-armed early-emit capture path. The broad
// randomized metamorphic sweep lives in
// tests/integration/test_streaming_equivalence.cpp; these are the
// targeted, readable cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "../support/stream_equality.hpp"
#include "ros/common/angles.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/features.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/testkit/reference.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;
namespace probe = ros::obs::probe;
using ros::teststream::diff_cluster;
using ros::teststream::diff_decode;
using ros::teststream::diff_decode_drive;
using ros::teststream::diff_report;
using ros::teststream::run_decode;
using ros::teststream::run_full;
using ros::testkit::reference_decode_drive;
using ros::testkit::reference_interrogate;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

// An lvalue with static lifetime: StreamingInterrogator keeps a pointer
// to its drive, so engines built from it may outlive any one statement.
const rs::StraightDrive& default_drive() {
  static const rs::StraightDrive drive({.lane_offset_m = 3.0,
                                        .speed_mps = 2.0,
                                        .start_x_m = -2.5,
                                        .end_x_m = 2.5});
  return drive;
}

rp::InterrogatorConfig fast_config() {
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 5;
  return cfg;
}

rs::Scene make_world() {
  rs::Scene world;
  world.add_tag(rt::make_default_tag({true, false, true, true}, &stackup(),
                                     32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  world.add_clutter(rs::tripod_params({1.3, 0.4}));
  return world;
}

std::uint64_t counter(const char* name) {
  return ros::obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

TEST(Streaming, DecodeModeMatchesBatchExactly) {
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  const auto stream = rp::decode_drive(world, default_drive(), {0.0, 0.0},
                                       cfg);
  EXPECT_EQ(diff_decode_drive(stream, ref), "");
  EXPECT_EQ(stream.decode.bits,
            (std::vector<bool>{true, false, true, true}));
}

TEST(Streaming, DecodeModeMatchesBatchWithFovStrideAndCodebook) {
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  cfg.frame_stride = 7;
  cfg.decoder.backend = rt::DecoderBackend::codebook;
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  const auto stream = rp::decode_drive(world, default_drive(), {0.0, 0.0},
                                       cfg);
  EXPECT_EQ(diff_decode_drive(stream, ref), "");
}

TEST(Streaming, DecodeModeWindowSizeIsIrrelevant) {
  // The contract: decode mode is reference-identical at EVERY window
  // size.
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  for (const std::size_t window : {0ul, 1ul, 3ul, 1000ul}) {
    rp::StreamingOptions opts;
    opts.window_frames = window;
    const auto stream =
        run_decode(world, default_drive(), {0.0, 0.0}, cfg, opts);
    EXPECT_EQ(diff_decode_drive(stream, ref), "")
        << "window " << window;
  }
}

TEST(Streaming, FullModeMatchesBatchUnbounded) {
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref = reference_interrogate(world, default_drive(), cfg);
  const auto stream = rp::Interrogator(cfg).run(world, default_drive());
  EXPECT_EQ(diff_report(stream, ref), "");
  ASSERT_EQ(stream.tags.size(), 1u);
}

TEST(Streaming, FullModeWindowCoveringDriveMatchesBatch) {
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref = reference_interrogate(world, default_drive(), cfg);
  rp::StreamingOptions opts;
  opts.window_frames = 100000;  // >= n_frames: nothing ever evicted
  const auto stream = run_full(world, default_drive(), cfg, opts);
  EXPECT_EQ(diff_report(stream, ref), "");
}

TEST(Streaming, BoundedWindowReportCoversExactlySurvivors) {
  // A bounded window lawfully degrades: the report covers the last
  // `window` frames only, and its clusters are exactly what batch
  // clustering of those surviving points produces.
  const auto world = make_world();
  const auto cfg = fast_config();
  rp::StreamingOptions opts;
  opts.window_frames = 20;
  const auto stream = run_full(world, default_drive(), cfg, opts);
  ASSERT_GT(stream.n_frames, opts.window_frames);
  for (const auto& p : stream.cloud.points) {
    EXPECT_GE(p.frame, stream.n_frames - opts.window_frames);
  }
  // Re-cluster the surviving cloud from scratch with the batch path.
  const auto reclustered = rp::filter_dense(
      rp::extract_clusters(stream.cloud, cfg.dbscan),
      cfg.tag_detector.min_density, cfg.tag_detector.min_points);
  ASSERT_EQ(stream.clusters.size(), reclustered.size());
  for (std::size_t i = 0; i < reclustered.size(); ++i) {
    EXPECT_EQ(diff_cluster(stream.clusters[i], reclustered[i]), "")
        << "cluster " << i;
  }
}

TEST(Streaming, SharedDriverMatchesReferenceAtOneAndFourThreads) {
  // run_frames() synthesizes each block under parallel_for in any order
  // and consumes it in frame order: at 1 and at 4 executors, every entry
  // point equals the serial reference bit for bit.
  struct ThreadsGuard {
    ~ThreadsGuard() {
      ros::exec::ThreadPool::set_global_threads(
          ros::exec::default_threads());
    }
  } guard;
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref_decode =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  const auto ref_full = reference_interrogate(world, default_drive(), cfg);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ros::exec::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(diff_decode_drive(rp::decode_drive(world, default_drive(),
                                                 {0.0, 0.0}, cfg),
                                ref_decode),
              "");
    rp::StreamingOptions opts;
    opts.window_frames = 3;
    EXPECT_EQ(diff_decode_drive(
                  run_decode(world, default_drive(), {0.0, 0.0}, cfg, opts),
                  ref_decode),
              "");
    EXPECT_EQ(diff_report(rp::Interrogator(cfg).run(world, default_drive()),
                          ref_full),
              "");
  }
}

template <typename Scene, typename Drive>
concept CanRebindWith = requires(rp::StreamingInterrogator& engine,
                                 const rp::InterrogatorConfig& cfg,
                                 Scene&& scene, Drive&& drive) {
  engine.rebind(cfg, std::forward<Scene>(scene), std::forward<Drive>(drive),
                rs::Vec2{});
};

TEST(Streaming, TemporarySceneOrDriveIsACompileError) {
  // The engine points at its scene and drive; binding either to a
  // temporary would leave it reading a dead object.
  using Engine = rp::StreamingInterrogator;
  using Cfg = const rp::InterrogatorConfig&;
  static_assert(std::is_constructible_v<Engine, Cfg, const rs::Scene&,
                                        const rs::StraightDrive&, rs::Vec2>);
  static_assert(!std::is_constructible_v<Engine, Cfg, const rs::Scene&,
                                         rs::StraightDrive&&, rs::Vec2>);
  static_assert(!std::is_constructible_v<Engine, Cfg, rs::Scene&&,
                                         const rs::StraightDrive&, rs::Vec2>);
  static_assert(std::is_constructible_v<Engine, Cfg, const rs::Scene&,
                                        const rs::StraightDrive&>);
  static_assert(!std::is_constructible_v<Engine, Cfg, const rs::Scene&,
                                         rs::StraightDrive&&>);
  static_assert(!std::is_constructible_v<Engine, Cfg, rs::Scene&&,
                                         const rs::StraightDrive&>);
  static_assert(CanRebindWith<const rs::Scene&, const rs::StraightDrive&>);
  static_assert(!CanRebindWith<const rs::Scene&, rs::StraightDrive>);
  static_assert(!CanRebindWith<rs::Scene, const rs::StraightDrive&>);
  SUCCEED();
}

TEST(Streaming, ConsumeEnforcesFrameOrder) {
  const auto world = make_world();
  rp::StreamingInterrogator engine(fast_config(), world, default_drive(),
                                   rs::Vec2{0.0, 0.0});
  ASSERT_GE(engine.n_frames(), 2u);
  auto pkt = engine.synthesize(1);  // out of order: frame 0 not consumed
  EXPECT_ANY_THROW(engine.consume(std::move(pkt)));
}

TEST(Streaming, FinalizeWithZeroFramesIsACleanNoRead) {
  const auto world = make_world();
  rp::StreamingInterrogator engine(fast_config(), world, default_drive(),
                                   rs::Vec2{0.0, 0.0});
  const auto out = engine.finalize_decode();
  EXPECT_TRUE(out.decode.bits.empty());
  EXPECT_TRUE(out.samples.empty());
  EXPECT_EQ(out.telemetry.n_frames, 0u);

  rp::StreamingInterrogator full(fast_config(), world, default_drive());
  const auto report = full.finalize_report();
  EXPECT_TRUE(report.cloud.points.empty());
  EXPECT_TRUE(report.clusters.empty());
  EXPECT_TRUE(report.tags.empty());
}

TEST(Streaming, SingleFrameDriveStillMatchesBatch) {
  // Degenerate frame count: a pass so short only one frame exists.
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.frame_stride = 100;
  const auto drive = rs::StraightDrive({.lane_offset_m = 3.0,
                                        .speed_mps = 12.0,
                                        .start_x_m = -0.05,
                                        .end_x_m = 0.05});
  const auto ref = reference_decode_drive(world, drive, {0.0, 0.0}, cfg);
  const auto stream = rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode_drive(stream, ref), "");

  const auto ref_full = reference_interrogate(world, drive, cfg);
  const auto stream_full = rp::Interrogator(cfg).run(world, drive);
  EXPECT_EQ(stream_full.n_frames, 1u);
  EXPECT_EQ(diff_report(stream_full, ref_full), "");
}

TEST(Streaming, PrefixConsistencySamplesArePrefixes) {
  // Consuming only the first k frames yields exactly the first k
  // samples of the full pass — no state leaks across the cut.
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto full = rp::decode_drive(world, default_drive(), {0.0, 0.0},
                                     cfg);
  const std::size_t n = full.samples.size();
  ASSERT_GT(n, 4u);
  for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
    rp::StreamingInterrogator engine(cfg, world, default_drive(),
                                     rs::Vec2{0.0, 0.0});
    for (std::size_t i = 0; i < k; ++i) engine.push_frame(i);
    const auto prefix = engine.finalize_decode();
    ASSERT_EQ(prefix.samples.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix.samples[i].u, full.samples[i].u);
      EXPECT_EQ(prefix.samples[i].rss_w, full.samples[i].rss_w);
      EXPECT_EQ(prefix.samples[i].frame, full.samples[i].frame);
    }
  }
}

TEST(Streaming, EarlyEmitEqualsFinalDecodeBitForBit) {
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;

  const std::uint64_t mismatches_before =
      counter("pipeline.stream.emit_mismatch");
  const std::uint64_t emits_before =
      counter("pipeline.stream.early_emits");

  rp::StreamingInterrogator engine(cfg, world, default_drive(),
                                   rs::Vec2{0.0, 0.0}, opts);
  for (std::size_t i = 0; i < engine.n_frames(); ++i) engine.push_frame(i);
  ASSERT_TRUE(engine.has_emitted());
  // The drive exits the 60 deg FoV well before its end.
  EXPECT_LT(engine.emit_frame() + 1, engine.n_frames());
  const rt::DecodeResult emitted = engine.emitted_decode();

  const auto final_result = engine.finalize_decode();
  EXPECT_EQ(diff_decode(emitted, final_result.decode), "");
  EXPECT_EQ(counter("pipeline.stream.emit_mismatch"), mismatches_before);
  EXPECT_EQ(counter("pipeline.stream.early_emits"), emits_before + 1);

  // And the emitted read equals the reference read.
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode(emitted, ref.decode), "");
}

TEST(Streaming, EarlyEmitCanStopConsumingAtEmitFrame) {
  // The point of early emit: the consumer may stop right after the
  // emission and still hold the final (reference-identical) readout.
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;

  rp::StreamingInterrogator engine(cfg, world, default_drive(),
                                   rs::Vec2{0.0, 0.0}, opts);
  std::size_t i = 0;
  while (i < engine.n_frames() && !engine.has_emitted()) {
    engine.push_frame(i++);
  }
  ASSERT_TRUE(engine.has_emitted());
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode(engine.emitted_decode(), ref.decode), "");
  (void)engine.finalize_decode();  // still clean after a partial feed
}

TEST(Streaming, EarlyEmitGateStaysClosedWithoutFov) {
  // No FoV truncation -> the series is never provably final -> the
  // engine must never emit early (it would be a retraction risk).
  const auto world = make_world();
  const auto cfg = fast_config();  // decode_fov_rad = 0
  rp::StreamingOptions opts;
  opts.early_emit = true;
  rp::StreamingInterrogator engine(cfg, world, default_drive(),
                                   rs::Vec2{0.0, 0.0}, opts);
  for (std::size_t i = 0; i < engine.n_frames(); ++i) engine.push_frame(i);
  EXPECT_FALSE(engine.has_emitted());
  const auto out = engine.finalize_decode();
  EXPECT_EQ(out.decode.bits,
            (std::vector<bool>{true, false, true, true}));
}

TEST(Streaming, EmitAccessorsThrowBeforeEmission) {
  const auto world = make_world();
  rp::StreamingInterrogator engine(fast_config(), world, default_drive(),
                                   rs::Vec2{0.0, 0.0});
  EXPECT_FALSE(engine.has_emitted());
  EXPECT_ANY_THROW((void)engine.emit_frame());
  EXPECT_ANY_THROW((void)engine.emitted_decode());
  (void)engine.finalize_decode();
}

TEST(Streaming, RetainSamplesOffDropsOutputButNotDecode) {
  const auto world = make_world();
  const auto cfg = fast_config();
  const auto ref =
      reference_decode_drive(world, default_drive(), {0.0, 0.0}, cfg);
  rp::StreamingOptions opts;
  opts.retain_samples = false;
  const auto stream =
      run_decode(world, default_drive(), {0.0, 0.0}, cfg, opts);
  EXPECT_TRUE(stream.samples.empty());
  EXPECT_EQ(diff_decode(stream.decode, ref.decode), "");
  EXPECT_EQ(stream.mean_rss_dbm, ref.mean_rss_dbm);
}

TEST(Streaming, NonPositiveFrameRateIsRejectedByEveryEntryPoint) {
  // A zero, negative, or NaN chirp frame rate has no frame grid: every
  // entry point refuses it up front with std::invalid_argument.
  const auto world = make_world();
  rp::StreamingInterrogator recycled(fast_config(), world, default_drive(),
                                     rs::Vec2{0.0, 0.0});
  for (const double rate : {0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE("frame_rate_hz " + std::to_string(rate));
    auto cfg = fast_config();
    cfg.chirp.frame_rate_hz = rate;
    EXPECT_THROW({ const rp::Interrogator inter(cfg); },
                 std::invalid_argument);
    EXPECT_THROW(
        (void)rp::decode_drive(world, default_drive(), {0.0, 0.0}, cfg),
        std::invalid_argument);
    EXPECT_THROW(rp::StreamingInterrogator(cfg, world, default_drive(),
                                           rs::Vec2{0.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(rp::StreamingInterrogator(cfg, world, default_drive()),
                 std::invalid_argument);
    EXPECT_THROW(
        recycled.rebind(cfg, world, default_drive(), rs::Vec2{0.0, 0.0}),
        std::invalid_argument);
  }
}

// --- probe-armed early-emit capture ---------------------------------

class StreamingProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "ros_stream_probe_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::setenv("ROS_OBS_DIAG_DIR", root_.c_str(), 1);
    probe::set_mode(probe::Mode::off);
  }
  void TearDown() override {
    probe::set_mode(probe::Mode::off);
    probe::clear_context();
    ::unsetenv("ROS_OBS_DIAG_DIR");
  }
  std::string root_;
};

TEST_F(StreamingProbeTest, EarlyEmitPathCapturesProvenanceBundle) {
  probe::set_mode(probe::Mode::always);
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;
  const auto stream =
      run_decode(world, default_drive(), {0.0, 0.0}, cfg, opts);
  probe::set_mode(probe::Mode::off);
  ASSERT_FALSE(stream.decode.bits.empty());

  const std::string path = probe::last_bundle_path();
  ASSERT_FALSE(path.empty()) << "early-emit read wrote no bundle";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bundle = buf.str();
  // The bundle records the decode_drive read kind, the early-emit
  // funnel stage, and the emit-time artifacts.
  EXPECT_NE(bundle.find("\"decode_drive\""), std::string::npos);
  EXPECT_NE(bundle.find("early_emit"), std::string::npos);
  EXPECT_NE(bundle.find("emit_frame"), std::string::npos);
  EXPECT_NE(bundle.find("bit_margins"), std::string::npos);
}
