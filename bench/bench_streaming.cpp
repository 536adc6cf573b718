// Streaming-pipeline soak bench: times decode_drive (the engine under
// its shared block-parallel frame driver) against the same engine fed
// one frame at a time on the calling thread, reports time-to-first-read
// for the early-emit gate, and checks the bounded-memory laws on a
// sliding-window full-mode run.
//
// Timing lands in gauges and the CSV only. The fidelity scorecard
// records the deterministic invariants the streaming contract
// guarantees on every host and backend:
//   * frame-at-a-time output == decode_drive output;
//   * an early-emitted readout equals the batch readout bit for bit;
//   * a bounded window retains only in-window points (the memory law).
// Steady-state allocation counts are gated by the ZeroAlloc test suite
// under ROS_OBS_COUNT_ALLOCS=1; when that switch is on here too, the
// engine's allocs-per-frame gauges flow into the metrics sidecar.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "ros/exec/thread_pool.hpp"
#include "ros/pipeline/streaming.hpp"

namespace {

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// The engine fed one frame at a time (synthesize + consume) on the
/// calling thread.
ros::pipeline::DecodeDriveResult push_frames(
    const ros::scene::Scene& world, const ros::scene::StraightDrive& pass,
    const ros::pipeline::InterrogatorConfig& cfg) {
  ros::pipeline::StreamingInterrogator engine(cfg, world, pass,
                                              ros::scene::Vec2{0.0, 0.0});
  for (std::size_t i = 0; i < engine.n_frames(); ++i) engine.push_frame(i);
  return engine.finalize_decode();
}

bool same_decode(const ros::pipeline::DecodeDriveResult& a,
                 const ros::pipeline::DecodeDriveResult& b) {
  return a.decode.bits == b.decode.bits &&
         a.decode.slot_amplitudes == b.decode.slot_amplitudes &&
         a.mean_rss_dbm == b.mean_rss_dbm &&
         a.samples.size() == b.samples.size();
}

}  // namespace

ROS_BENCH(streaming) {
  using namespace ros;

  const scene::Scene world = bench::tag_scene(bench::truth_bits());
  const scene::StraightDrive pass = bench::drive();
  pipeline::InterrogatorConfig cfg;
  cfg.frame_stride = ctx.quick() ? 10 : 4;
  const int reps = ctx.quick() ? 3 : 7;

  // Warm everything (arenas, FFT plans, thread pool) before timing.
  pipeline::DecodeDriveResult batch =
      pipeline::decode_drive(world, pass, {0.0, 0.0}, cfg);
  pipeline::DecodeDriveResult stream = push_frames(world, pass, cfg);

  std::vector<double> t_batch, t_inline;
  for (int k = 0; k < reps; ++k) {
    // Interleave the drivers so thermal / scheduler drift spreads
    // evenly instead of biasing whichever ran last.
    t_batch.push_back(time_ms([&] {
      batch = pipeline::decode_drive(world, pass, {0.0, 0.0}, cfg);
      bench::do_not_optimize(batch.mean_rss_dbm);
    }));
    t_inline.push_back(time_ms([&] {
      stream = push_frames(world, pass, cfg);
      bench::do_not_optimize(stream.mean_rss_dbm);
    }));
  }

  const double batch_ms = median(t_batch);
  const double inline_ms = median(t_inline);

  // Early emit: with the FoV truncated the readout is final the moment
  // the pass leaves the cone — time-to-first-read is the emit frame,
  // a deterministic fraction of the drive.
  pipeline::InterrogatorConfig fov_cfg = cfg;
  fov_cfg.decode_fov_rad = 60.0 * 3.14159265358979323846 / 180.0;
  const auto fov_batch =
      pipeline::decode_drive(world, pass, {0.0, 0.0}, fov_cfg);
  pipeline::StreamingOptions eopts;
  eopts.early_emit = true;
  pipeline::StreamingInterrogator engine(fov_cfg, world, pass,
                                         scene::Vec2{0.0, 0.0}, eopts);
  engine.run_frames();
  const bool emitted = engine.has_emitted();
  const bool emit_matches =
      emitted && engine.emitted_decode().bits == fov_batch.decode.bits &&
      engine.emitted_decode().slot_amplitudes ==
          fov_batch.decode.slot_amplitudes;
  const double emit_frac =
      emitted && engine.n_frames() > 1
          ? static_cast<double>(engine.emit_frame()) /
                static_cast<double>(engine.n_frames() - 1)
          : 1.0;
  (void)engine.finalize_decode();

  // Bounded-window soak (full mode): a short window must keep the
  // surviving cloud inside the window — the memory law that makes the
  // streaming engine O(window), not O(drive).
  pipeline::StreamingOptions wopts;
  wopts.window_frames = 8;
  pipeline::StreamingInterrogator wengine(cfg, world, pass, wopts);
  wengine.run_frames();
  const auto windowed = wengine.finalize_report();
  bool window_bounded = true;
  for (const auto& p : windowed.cloud.points) {
    window_bounded &= p.frame + wopts.window_frames >= windowed.n_frames;
  }

  common::CsvTable table(
      "streaming: decode drivers vs batch (median of " +
          std::to_string(reps) + " reps, " +
          std::to_string(batch.samples.size()) + " frames)",
      {"driver", "median_ms", "vs_batch"});
  table.add_row("batch", {batch_ms, 1.0});
  table.add_row("stream_inline",
                {inline_ms, batch_ms > 0.0 ? inline_ms / batch_ms : 0.0});
  bench::print(ctx, table);
  ctx.out() << "# time-to-first-read: frame "
            << (emitted ? engine.emit_frame() : engine.n_frames())
            << " of " << engine.n_frames() << " (" << emit_frac * 100.0
            << "% of the pass)\n";

  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("stream.bench.batch_ms").set(batch_ms);
  reg.gauge("stream.bench.inline_ms").set(inline_ms);
  reg.gauge("stream.bench.time_to_first_read_frac").set(emit_frac);
  // decode_drive synthesizes on the whole pool; only a one-executor
  // pool compares like with like.
  if (exec::ThreadPool::global().threads() == 1 && batch_ms > 0.0 &&
      inline_ms > 1.25 * batch_ms) {
    std::fprintf(stderr,
                 "# WARNING: the frame-at-a-time engine is %.0f%% slower "
                 "than decode_drive (%.3fms vs %.3fms); the per-frame "
                 "state machine should be within noise of the block "
                 "driver on one thread\n",
                 (inline_ms / batch_ms - 1.0) * 100.0, inline_ms,
                 batch_ms);
  }

  // Deterministic scorecard: the equivalence contract, end to end.
  ctx.fidelity("stream_inline_matches_batch",
               same_decode(stream, batch) ? 1.0 : 0.0, 1.0, 1.0,
               "frame-at-a-time engine output identical to decode_drive");
  ctx.fidelity("stream_early_emit_matches_batch",
               emit_matches ? 1.0 : 0.0, 1.0, 1.0,
               "early-emitted readout equals the batch readout");
  ctx.fidelity("stream_window_memory_bounded",
               window_bounded ? 1.0 : 0.0, 1.0, 1.0,
               "bounded window retains only in-window cloud points");
}
