// Interrogation engine (ros::pipeline): the one implementation of the
// paper Sec. 6 read pipeline, as a per-frame state machine.
//
//   synthesize(i)  — the heavy stateless stage (waveform synthesis,
//                    range FFT, detection), callable from ANY thread in
//                    any order; frame i's output depends only on
//                    (config, scene, pose_i, i) via its counter-derived
//                    RNG stream.
//   consume(pkt)   — the sequential state machine: in-order multi-frame
//                    merge, incremental tracking estimate, incremental
//                    grid-DBSCAN insertion (+ sliding-window eviction),
//                    per-frame spotlight RSS sampling, and the
//                    early-emit decode gate.
//   finalize_*()   — the terminal stage producing the result types.
//
// `decode_drive` and `Interrogator::run` are thin drivers: each builds
// the engine in its mode, calls run_frames() — the shared frame driver
// that synthesizes blocks of frames under ros::exec::parallel_for and
// consumes them in order — and returns finalize_decode() or
// finalize_report(). The corridor runtime drives many engines with its
// own shard scheduler through the same synthesize/consume/finalize
// calls.
//
// Window contract:
//
//   * decode mode (tag position known — the fleet-scale service mode):
//     finalize_decode() is the same for EVERY window size, thread
//     count, SIMD backend, decoder backend, and frame-delivery chunking,
//     because the spotlight samples are taken per frame and never need
//     the profile again.
//   * full mode: an unbounded window (window_frames == 0, or
//     >= n_frames) reports the whole drive — that is Interrogator::run.
//     A bounded window lawfully degrades: the report covers only the
//     surviving window (DESIGN.md §11), and the incremental clustering
//     still matches batch DBSCAN of exactly those surviving points.
//
// Both contracts are checked bit for bit, with no epsilon, against the
// naive serial reference in ros/testkit/reference.hpp (batch
// extract_clusters, sample_rss, mean_rss_dbm over whole-drive vectors)
// by tests/integration/test_streaming_equivalence.
//
// Early emit (decode mode): with FoV truncation active and a
// jitter-free tracking model, u = sin(view angle) is strictly monotone
// along a straight drive, so once the latest sample leaves the FoV the
// decoder series is provably final — the engine decodes immediately and
// `emitted_decode()` equals the final decode bit for bit (the
// "no-retraction" law). finalize_decode() re-decodes the final series
// and counts any disagreement in `pipeline.stream.emit_mismatch`
// (asserted zero in tests).
//
// Memory: decode mode retains O(in-FoV samples) — bounded by geometry,
// not drive length — plus O(1) tracking state; set
// `retain_samples = false` to drop the O(n_frames) output sample list
// for soak runs. Full mode retains the sliding window (profiles +
// cloud points + DBSCAN index) — O(window) when bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "ros/pipeline/incremental_dbscan.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/tag/codec.hpp"

namespace ros::pipeline {

struct StreamingOptions {
  /// Sliding-window length in frames for full mode: profiles, cloud
  /// points, and DBSCAN membership older than this are evicted. 0 keeps
  /// everything (Interrogator::run). Ignored in decode mode, which never
  /// retains profiles.
  std::size_t window_frames = 0;
  /// Decode mode: emit the readout as soon as it is provably final
  /// (FoV truncation active, jitter-free tracking, observed-monotone u
  /// past the FoV edge, decoder preconditions met).
  bool early_emit = false;
  /// Keep the per-frame RssSample list in the DecodeDriveResult. false
  /// drops it for bounded-memory soak runs; the decode itself is
  /// unaffected.
  bool retain_samples = true;
};

/// One frame's artifacts in flight between the synthesis stage and the
/// consumer. Decode mode fills `profile`; full mode fills `full`.
struct FramePacket {
  std::size_t index = 0;
  FrameArtifacts full;
  ros::radar::RangeProfile profile;
};

/// Per-mode metric, span, and probe names (defined in streaming.cpp).
struct ReadNames;

class StreamingInterrogator {
 public:
  /// Decode mode: the tag's position is known (e.g. from a previous
  /// pass); only switched-Tx spotlight sampling and the spatial decoder
  /// run. Reads as kind "decode_drive".
  StreamingInterrogator(const InterrogatorConfig& config,
                        const ros::scene::Scene& scene,
                        const ros::scene::StraightDrive& drive,
                        const ros::scene::Vec2& tag_position,
                        StreamingOptions opts = {});

  /// Full mode: detection, clustering, discrimination, and decode.
  /// Reads as kind "interrogate".
  StreamingInterrogator(const InterrogatorConfig& config,
                        const ros::scene::Scene& scene,
                        const ros::scene::StraightDrive& drive,
                        StreamingOptions opts = {});

  // The engine keeps pointers to `scene` and `drive`, so a temporary
  // for either would dangle: refuse it at compile time.
  StreamingInterrogator(const InterrogatorConfig&, ros::scene::Scene&&,
                        const ros::scene::StraightDrive&,
                        const ros::scene::Vec2&,
                        StreamingOptions = {}) = delete;
  StreamingInterrogator(const InterrogatorConfig&, const ros::scene::Scene&,
                        ros::scene::StraightDrive&&, const ros::scene::Vec2&,
                        StreamingOptions = {}) = delete;
  StreamingInterrogator(const InterrogatorConfig&, ros::scene::Scene&&,
                        const ros::scene::StraightDrive&,
                        StreamingOptions = {}) = delete;
  StreamingInterrogator(const InterrogatorConfig&, const ros::scene::Scene&,
                        ros::scene::StraightDrive&&,
                        StreamingOptions = {}) = delete;

  ~StreamingInterrogator();
  StreamingInterrogator(const StreamingInterrogator&) = delete;
  StreamingInterrogator& operator=(const StreamingInterrogator&) = delete;

  /// Recycle this engine for a new decode-mode session WITHOUT releasing
  /// buffer capacity: every container is cleared, not shrunk, and every
  /// POD member reassigned, so a warm engine taken from a free list
  /// starts the next vehicle pass with zero heap traffic (the corridor
  /// runtime's churn contract). Only valid on engines constructed in
  /// decode mode. Any un-finalized previous session is discarded.
  void rebind(const InterrogatorConfig& config,
              const ros::scene::Scene& scene,
              const ros::scene::StraightDrive& drive,
              const ros::scene::Vec2& tag_position,
              StreamingOptions opts = {});
  void rebind(const InterrogatorConfig&, ros::scene::Scene&&,
              const ros::scene::StraightDrive&, const ros::scene::Vec2&,
              StreamingOptions = {}) = delete;
  void rebind(const InterrogatorConfig&, const ros::scene::Scene&,
              ros::scene::StraightDrive&&, const ros::scene::Vec2&,
              StreamingOptions = {}) = delete;

  const StreamingOptions& options() const { return opts_; }
  const InterrogatorConfig& config() const { return config_; }
  /// Frames the drive yields at the configured rate — the stream length.
  std::size_t n_frames() const { return n_frames_; }

  /// Heavy per-frame stage. Stateless and const: callable concurrently
  /// from any thread, in any order.
  FramePacket synthesize(std::size_t i) const;
  /// Allocation-reusing variant for hot producer loops.
  void synthesize_into(std::size_t i, FramePacket& out) const;

  /// Sequential state machine; packets MUST arrive in frame order
  /// (enforced).
  void consume(FramePacket&& packet);

  /// synthesize + consume in one call (one frame, calling thread).
  void push_frame(std::size_t i);

  /// The shared frame driver: synthesize every remaining frame in
  /// blocks under ros::exec::parallel_for (any order within a block)
  /// and consume each block in frame order. Carries the per-frame
  /// instrumentation: watchdog guard, `<kind>.frame.ms` histograms,
  /// flight-recorder frame records, the
  /// `<kind>.frame_loop.allocs_per_frame` gauge, and runtime
  /// introspection.
  void run_frames();

  /// Decode mode: true once the early-emit gate fired. The emitted
  /// decode is final — finalize_decode() returns the same bits.
  bool has_emitted() const { return emitted_; }
  std::size_t emit_frame() const;
  const ros::tag::DecodeResult& emitted_decode() const;

  /// Terminal stages. Call exactly once, after the last consume().
  DecodeDriveResult finalize_decode();
  InterrogationReport finalize_report();

 private:
  void begin_read();
  void synthesize_frame(std::size_t i, FramePacket& out) const;
  void evict_before(std::size_t min_live_frame);
  void maybe_early_emit(std::size_t frame_index);

  InterrogatorConfig config_;  ///< own copy: the engine may outlive the caller's
  const ros::scene::Scene* scene_;
  const ros::scene::StraightDrive* drive_;
  StreamingOptions opts_;
  bool decode_mode_;
  const ReadNames* names_;
  ros::scene::Vec2 tag_position_{0.0, 0.0};

  FrameStage stage_;
  double rate_hz_ = 1.0;
  std::size_t n_frames_ = 0;
  ros::scene::Vec2 road_{1.0, 0.0};
  double max_abs_u_ = 1.0;
  ros::scene::TrackingEstimator tracker_;

  std::size_t consumed_ = 0;
  bool finalized_ = false;
  bool probing_ = false;
  std::int64_t begin_us_ = 0;  ///< read start on the trace clock

  // --- decode-mode state ---------------------------------------------
  std::vector<RssSample> samples_;   ///< retained when opts_.retain_samples
  double sum_rss_w_ = 0.0;           ///< running mean accumulator
  std::size_t n_samples_ = 0;
  DecoderSeries series_;             ///< decoder input (in-FoV samples)
  RangeFftSummary probe_range_fft_;  ///< bundle artifact, while probing
  bool emit_eligible_ = false;       ///< provability preconditions hold
  bool mono_inc_ok_ = true;          ///< observed u nondecreasing so far
  bool mono_dec_ok_ = true;          ///< observed u nonincreasing so far
  bool saw_inc_ = false;             ///< a strict increase was observed
  bool saw_dec_ = false;             ///< a strict decrease was observed
  double prev_u_ = 0.0;
  bool have_prev_u_ = false;
  bool emitted_ = false;
  std::size_t emit_frame_ = 0;
  ros::tag::DecodeResult emitted_decode_;

  // --- full-mode sliding-window state --------------------------------
  std::deque<ros::radar::RangeProfile> win_profiles_normal_;
  std::deque<ros::radar::RangeProfile> win_profiles_switched_;
  std::deque<ros::scene::RadarPose> win_estimated_;
  std::deque<CloudPoint> win_points_;
  std::deque<std::size_t> win_frame_point_counts_;
  std::size_t win_first_frame_ = 0;   ///< oldest surviving frame index
  std::size_t evicted_points_ = 0;    ///< DBSCAN ids below this are dead
  IncrementalDbscan dbscan_;
  PointCloud scratch_cloud_;          ///< per-frame accumulate target

  // --- stage times booked into the telemetry -------------------------
  mutable AtomicMs synth_ms_;  ///< frame stage (wall time under run_frames)
  double track_ms_ = 0.0;
  double stage_ms_ = 0.0;      ///< sample_rss (decode) / cluster (full)
  double decode_ms_ = 0.0;     ///< decode mode, early emit included
};

}  // namespace ros::pipeline
