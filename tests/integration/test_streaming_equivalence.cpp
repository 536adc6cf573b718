// Engine/reference equivalence — the metamorphic proof harness. Over
// 100+ randomized testkit scenarios, decode_drive, Interrogator::run,
// and the engine under explicit StreamingOptions must reproduce the
// naive serial reference in ros/testkit/reference.hpp BIT-IDENTICALLY
// (operator==, no epsilon): same samples, same decoded bits and
// decision variables, same mean RSS, same read/no-read outcome —
// across window sizes, frame-delivery chunking, decoder backends, and
// executor counts. The reference clusters with batch extract_clusters
// and samples with whole-drive sample_rss / mean_rss_dbm, so the sweep
// also checks the incremental DBSCAN and the per-frame spotlight and
// running mean. It enforces the early-emit laws on every scenario where
// the gate can arm: an emitted readout equals the reference readout,
// and the global no-retraction counter never moves.
//
// CI runs this file as its own job (`streaming-equivalence`) under
// ROS_THREADS=4 ROS_SIMD=scalar ROS_DECODER=codebook with the probe
// armed in failure mode, so any divergence uploads a replayable
// provenance bundle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/em/material.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/testkit/reference.hpp"
#include "ros/testkit/scenario.hpp"
#include "../support/stream_equality.hpp"

namespace rp = ros::pipeline;
namespace rt = ros::tag;
namespace tk = ros::testkit;
using ros::common::Rng;
using ros::teststream::diff_decode;
using ros::teststream::diff_decode_drive;
using ros::teststream::diff_report;
using ros::teststream::run_decode;
using ros::teststream::run_full;

namespace {

/// Run `fn` on a global pool of `threads` executors, then restore the
/// default pool.
template <typename Fn>
auto on_threads(std::size_t threads, Fn&& fn) {
  struct Restore {
    ~Restore() {
      ros::exec::ThreadPool::set_global_threads(
          ros::exec::default_threads());
    }
  } restore;
  ros::exec::ThreadPool::set_global_threads(threads);
  return fn();
}

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

/// Deterministic randomized scenario #k (the roztest generator: six
/// mutations from the default, fixed seed -> reproducible forever).
tk::Scenario scenario_at(std::uint64_t k) {
  Rng rng(0x5eedc0de + k);
  tk::Scenario s;
  for (int i = 0; i < 6; ++i) s = tk::mutate(s, rng);
  return s;
}

std::uint64_t counter(const char* name) {
  return ros::obs::MetricsRegistry::global().counter(name).value();
}

/// Feed a streaming engine with deliberately hostile delivery order:
/// synthesize each block of `chunk` frames in REVERSE, then consume in
/// order. Proves synthesis is order-free and the consumer sees pure
/// FIFO regardless of production schedule.
rp::DecodeDriveResult run_chunked(const tk::Scenario& s,
                                  const rp::InterrogatorConfig& cfg,
                                  std::size_t chunk) {
  const auto scene = s.make_scene(&stackup());
  const auto drive = s.make_drive();
  rp::StreamingInterrogator engine(cfg, scene, drive,
                                   ros::scene::Vec2{0.0, 0.0});
  std::vector<rp::FramePacket> block;
  for (std::size_t base = 0; base < engine.n_frames(); base += chunk) {
    const std::size_t count =
        std::min(chunk, engine.n_frames() - base);
    block.assign(count, rp::FramePacket{});
    for (std::size_t k = count; k-- > 0;) {
      engine.synthesize_into(base + k, block[k]);
    }
    for (std::size_t k = 0; k < count; ++k) {
      engine.consume(std::move(block[k]));
    }
  }
  return engine.finalize_decode();
}

}  // namespace

TEST(StreamingEquivalence, DecodeModeBitIdenticalAcrossScenarioSweep) {
  // >= 100 randomized scenarios x a rotating matrix of window size,
  // decoder backend, delivery chunking, and executor count. Every leg
  // must be exactly equal to the reference decode.
  constexpr std::uint64_t kScenarios = 108;
  const std::uint64_t mismatches_before =
      counter("pipeline.stream.emit_mismatch");
  int early_emit_checked = 0;

  for (std::uint64_t k = 0; k < kScenarios; ++k) {
    const tk::Scenario s = scenario_at(k);
    SCOPED_TRACE("scenario " + std::to_string(k) + "\n" + s.encode());
    const auto scene = s.make_scene(&stackup());
    const auto drive = s.make_drive();
    rp::InterrogatorConfig cfg = s.make_config();
    // Rotate the decoder backend so both engines (and the cross-check
    // harness) are inside the equivalence contract.
    cfg.decoder.backend = (k % 3 == 0)   ? rt::DecoderBackend::fft
                          : (k % 3 == 1) ? rt::DecoderBackend::codebook
                                         : rt::DecoderBackend::cross_check;

    const auto ref =
        tk::reference_decode_drive(scene, drive, {0.0, 0.0}, cfg);

    // Leg 1: the decode_drive entry point.
    ASSERT_EQ(diff_decode_drive(
                  rp::decode_drive(scene, drive, {0.0, 0.0}, cfg), ref),
              "")
        << "decode_drive";

    // Leg 2: the shared driver under a rotating window size (the decode
    // contract: the window is irrelevant). Include the degenerate
    // window-1 and a window of n_frames - 1.
    rp::StreamingOptions opts;
    const std::size_t n = std::max<std::size_t>(s.n_frames(), 1);
    const std::size_t windows[] = {0, 1, 7, n > 1 ? n - 1 : 1, n + 3};
    opts.window_frames = windows[k % 5];
    ASSERT_EQ(diff_decode_drive(run_decode(scene, drive, {0.0, 0.0}, cfg,
                                           opts),
                                ref),
              "")
        << "shared driver, window " << opts.window_frames;

    // Leg 3: hostile chunked delivery (reverse-order synthesis inside
    // each block), rotating chunk size including 1 and > n_frames.
    const std::size_t chunks[] = {1, 3, 16, 1024};
    const auto chunked = run_chunked(s, cfg, chunks[k % 4]);
    ASSERT_EQ(diff_decode_drive(chunked, ref), "")
        << "chunked delivery, chunk " << chunks[k % 4];

    // Leg 4 (every 3rd scenario — pool startup isn't free): the shared
    // driver on a pinned 1- or 4-executor pool.
    if (k % 3 == 0) {
      const std::size_t threads = (k % 2 == 0) ? 4 : 1;
      const auto pooled = on_threads(threads, [&] {
        return rp::decode_drive(scene, drive, {0.0, 0.0}, cfg);
      });
      ASSERT_EQ(diff_decode_drive(pooled, ref), "")
          << "shared driver on " << threads << " executors";
    }

    // Early-emit law, wherever the gate can arm (FoV truncation on and
    // jitter-free tracking): an emitted readout equals the reference.
    if (cfg.decode_fov_rad > 0.0 && cfg.decode_fov_rad < 3.0 &&
        cfg.tracking.jitter_std_m == 0.0) {
      rp::StreamingOptions eopts;
      eopts.early_emit = true;
      rp::StreamingInterrogator engine(
          cfg, scene, drive, ros::scene::Vec2{0.0, 0.0}, eopts);
      engine.run_frames();
      if (engine.has_emitted()) {
        ASSERT_EQ(diff_decode(engine.emitted_decode(), ref.decode), "")
            << "early emit diverged from the reference";
        ++early_emit_checked;
      }
      const auto finalized = engine.finalize_decode();
      ASSERT_EQ(diff_decode_drive(finalized, ref), "")
          << "early-emit engine finalize diverged";
    }
  }

  // No-retraction, sweep-wide: not one emitted readout was retracted.
  EXPECT_EQ(counter("pipeline.stream.emit_mismatch"), mismatches_before);
  // The sweep must actually exercise the early-emit path.
  EXPECT_GT(early_emit_checked, 0);
}

TEST(StreamingEquivalence, FullModeBitIdenticalWhenWindowCoversDrive) {
  // The full pipeline (detect + cluster + classify + decode) against
  // the reference: Interrogator::run (unbounded window) and a window
  // that exactly covers the drive are both reference-identical.
  for (std::uint64_t k = 0; k < 14; ++k) {
    const tk::Scenario s = scenario_at(1000 + k);
    SCOPED_TRACE("scenario " + std::to_string(k) + "\n" + s.encode());
    const auto scene = s.make_scene(&stackup());
    const auto drive = s.make_drive();
    const rp::InterrogatorConfig cfg = s.make_config();

    const auto ref = tk::reference_interrogate(scene, drive, cfg);

    const auto run = rp::Interrogator(cfg).run(scene, drive);
    ASSERT_EQ(diff_report(run, ref), "") << "Interrogator::run";

    rp::StreamingOptions opts;
    opts.window_frames = (k % 2 == 0) ? 0 : ref.n_frames;
    ASSERT_EQ(diff_report(run_full(scene, drive, cfg, opts), ref), "")
        << "shared driver, window " << opts.window_frames;

    if (k % 4 == 0) {
      const std::size_t threads = (k % 8 == 0) ? 4 : 1;
      const auto pooled = on_threads(
          threads, [&] { return rp::Interrogator(cfg).run(scene, drive); });
      ASSERT_EQ(diff_report(pooled, ref), "")
          << "Interrogator::run on " << threads << " executors";
    }
  }
}

TEST(StreamingEquivalence, BoundedWindowClustersMatchBatchOfSurvivors) {
  // The lawful degradation: at ANY window size, the report's clusters
  // equal batch DBSCAN + feature extraction over exactly the surviving
  // points (checked here end to end on randomized scenarios; the
  // point-level invariant is in test_incremental_dbscan).
  for (std::uint64_t k = 0; k < 10; ++k) {
    const tk::Scenario s = scenario_at(2000 + k);
    SCOPED_TRACE("scenario " + std::to_string(k) + "\n" + s.encode());
    const auto scene = s.make_scene(&stackup());
    const auto drive = s.make_drive();
    const rp::InterrogatorConfig cfg = s.make_config();

    rp::StreamingOptions opts;
    const std::size_t n = std::max<std::size_t>(s.n_frames(), 1);
    const std::size_t windows[] = {1, 2, n / 2 + 1, n > 1 ? n - 1 : 1};
    opts.window_frames = windows[k % 4];
    const auto report = run_full(scene, drive, cfg, opts);

    for (const auto& p : report.cloud.points) {
      ASSERT_GE(p.frame + opts.window_frames, report.n_frames)
          << "evicted point leaked into the report";
    }
    const auto reclustered = rp::filter_dense(
        rp::extract_clusters(report.cloud, cfg.dbscan),
        cfg.tag_detector.min_density, cfg.tag_detector.min_points);
    ASSERT_EQ(report.clusters.size(), reclustered.size());
    for (std::size_t i = 0; i < reclustered.size(); ++i) {
      ASSERT_EQ(ros::teststream::diff_cluster(report.clusters[i],
                                              reclustered[i]),
                "")
          << "cluster " << i;
    }
  }
}
