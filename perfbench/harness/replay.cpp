#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/pipeline/features.hpp"
#include "ros/pipeline/pointcloud.hpp"
#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/tag/codebook.hpp"

namespace perfbench {

namespace rp = ros::pipeline;
namespace rr = ros::radar;
namespace rs = ros::scene;

namespace {

// The spotlight searches +/-1 range bin around the target
// (radar::beamformed_rss_dbm), so each RSS sample reads three bins.
constexpr double kSpotlightBinsPerSample = 3.0;

/// Per-replay scratch, reused across frames like the library's own
/// FrameWorkspace so the replay does not time allocator traffic.
struct Scratch {
  std::vector<rs::ScatterPoint> points;
  std::vector<rr::ScatterReturn> returns;
  rr::FrameCube tones;
  rr::FrameCube noise;
};

std::size_t live_returns(std::span<const rr::ScatterReturn> returns) {
  return static_cast<std::size_t>(std::count_if(
      returns.begin(), returns.end(),
      [](const rr::ScatterReturn& r) { return r.amplitude > 0.0; }));
}

/// Scene returns for one Tx pass of one frame.
void scene_returns(const rs::Scene& scene, const rs::RadarPose& pose,
                   rr::TxMode mode, const rp::InterrogatorConfig& config,
                   double fc, ros::common::Rng& rng, Scratch& s,
                   std::vector<rr::ScatterReturn>& returns, Ledger& ledger) {
  ledger.time(kScene, [&] {
    scene.frame_returns_into(pose, mode, config.array, config.budget, fc,
                             rng, s.points, returns);
  });
  ledger.work(kScene, static_cast<double>(returns.size()));
}

/// Tones, then noise, then range FFT for one pass. Tones draw no RNG,
/// so the draw order is FrameStage's: every return first, then noise.
void tones_noise_fft(std::span<const rr::ScatterReturn> returns,
                     const rp::InterrogatorConfig& config,
                     const rr::WaveformSynthesizer& synth, double noise_w,
                     ros::common::Rng& rng, Scratch& s,
                     rr::RangeProfile& profile, Ledger& ledger) {
  const auto n_rx = static_cast<double>(config.array.n_rx);
  const auto n_s = static_cast<double>(config.chirp.n_samples);
  ledger.time(kTone, [&] { synth.synthesize_into(returns, 0.0, rng, s.tones); });
  ledger.work(kTone, static_cast<double>(live_returns(returns)) * n_rx * n_s);
  ledger.time(kNoise, [&] { synth.synthesize_into({}, noise_w, rng, s.noise); });
  ledger.work(kNoise, n_rx * n_s);
  // tones + (0 + noise): bit-identical to the single call's cube, which
  // accumulates the tones and then adds each noise draw.
  for (std::size_t k = 0; k < s.tones.size(); ++k) {
    for (std::size_t i = 0; i < s.tones[k].size(); ++i) {
      s.tones[k][i] += s.noise[k][i];
    }
  }
  ledger.time(kRangeFft, [&] {
    rr::range_fft_into(s.tones, config.chirp, ros::dsp::Window::hann, profile);
  });
  ledger.work(kRangeFft, n_rx);
  ledger.bins_computed += static_cast<double>(profile.n_bins());
}

std::vector<rs::RadarPose> track(const rs::StraightDrive& drive,
                                 const rp::InterrogatorConfig& config,
                                 std::vector<rs::RadarPose>& truth,
                                 Ledger& ledger) {
  auto estimated = ledger.time(kTrack, [&] {
    truth = drive.frames(config.chirp.frame_rate_hz /
                         static_cast<double>(config.frame_stride));
    return rs::TrackingModel(config.tracking).estimate(truth);
  });
  ledger.work(kTrack, static_cast<double>(truth.size()));
  return estimated;
}

rs::Vec2 road_direction(const rs::StraightDrive& drive) {
  return drive.velocity() * (1.0 / std::max(drive.velocity().norm(), 1e-9));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_doubles(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_cluster(const rp::Cluster& a, const rp::Cluster& b) {
  return a.point_indices == b.point_indices &&
         same_bits(a.centroid.x, b.centroid.x) &&
         same_bits(a.centroid.y, b.centroid.y) &&
         same_bits(a.size_m2, b.size_m2) &&
         same_bits(a.extent_m, b.extent_m) &&
         same_bits(a.mean_rss_dbm, b.mean_rss_dbm) &&
         same_bits(a.density, b.density) && a.n_points == b.n_points;
}

bool same_candidate(const rp::TagCandidate& a, const rp::TagCandidate& b) {
  return same_cluster(a.cluster, b.cluster) &&
         same_bits(a.rss_loss_db, b.rss_loss_db) &&
         same_bits(a.rss_normal_dbm, b.rss_normal_dbm) &&
         same_bits(a.rss_switched_dbm, b.rss_switched_dbm) &&
         a.is_tag == b.is_tag;
}

bool same_samples(std::span<const rp::RssSample> a,
                  std::span<const rp::RssSample> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].u, b[i].u) || !same_bits(a[i].rss_dbm, b[i].rss_dbm) ||
        !same_bits(a[i].rss_w, b[i].rss_w) ||
        !same_bits(a[i].range_m, b[i].range_m) || a[i].frame != b[i].frame) {
      return false;
    }
  }
  return true;
}

}  // namespace

rp::DecodeDriveResult replay_decode_drive(const rs::Scene& scene,
                                          const rs::StraightDrive& drive,
                                          const rs::Vec2& tag_position,
                                          const rp::InterrogatorConfig& config,
                                          Ledger& ledger) {
  std::vector<rs::RadarPose> truth;
  const auto estimated = track(drive, config, truth, ledger);

  const rr::WaveformSynthesizer synth(config.chirp, config.array);
  const double fc = config.chirp.center_hz();
  const double noise_w = rp::combined_noise_w(config);
  Scratch s;
  std::vector<rr::RangeProfile> profiles(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ros::common::Rng rng(ros::common::derive_stream_seed(config.noise_seed, i));
    scene_returns(scene, truth[i], rr::TxMode::switched, config, fc, rng, s,
                  s.returns, ledger);
    tones_noise_fft(s.returns, config, synth, noise_w, rng, s, profiles[i],
                    ledger);
  }

  rp::DecodeDriveResult out;
  out.samples = ledger.time(kSpotlight, [&] {
    return rp::sample_rss(profiles, estimated, tag_position,
                          road_direction(drive), config.array, fc);
  });
  ledger.work(kSpotlight, static_cast<double>(out.samples.size()));
  ledger.bins_read +=
      kSpotlightBinsPerSample * static_cast<double>(out.samples.size());

  ledger.time(kDecode, [&] {
    const auto series =
        rp::to_decoder_series(out.samples, rp::decode_max_abs_u(config));
    const ros::tag::TagDecoder decoder(config.decoder);
    if (decoder.can_decode(series.u)) {
      out.decode = decoder.decode(series.u, series.rss_linear);
    }
    ledger.work(kDecode, static_cast<double>(series.u.size()));
  });
  out.mean_rss_dbm = rp::mean_rss_dbm(out.samples);
  out.telemetry.n_points = out.samples.size();
  ++ledger.ops;
  return out;
}

rp::InterrogationReport replay_interrogate(const rs::Scene& scene,
                                           const rs::StraightDrive& drive,
                                           const rp::InterrogatorConfig& config,
                                           Ledger& ledger) {
  rp::InterrogationReport report;
  std::vector<rs::RadarPose> truth;
  const auto estimated = track(drive, config, truth, ledger);
  report.n_frames = truth.size();

  const rr::WaveformSynthesizer synth(config.chirp, config.array);
  const double fc = config.chirp.center_hz();
  const double noise_w = rp::combined_noise_w(config);
  Scratch s;
  std::vector<rr::ScatterReturn> ret_switched;
  std::vector<rr::RangeProfile> normal(truth.size());
  std::vector<rr::RangeProfile> switched(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ros::common::Rng rng(ros::common::derive_stream_seed(config.noise_seed, i));
    // FrameStage::run_full draw order: returns normal, returns switched,
    // noise normal, noise switched.
    scene_returns(scene, truth[i], rr::TxMode::normal, config, fc, rng, s,
                  s.returns, ledger);
    scene_returns(scene, truth[i], rr::TxMode::switched, config, fc, rng, s,
                  ret_switched, ledger);
    tones_noise_fft(s.returns, config, synth, noise_w, rng, s, normal[i],
                    ledger);
    tones_noise_fft(ret_switched, config, synth, noise_w, rng, s, switched[i],
                    ledger);
    // CFAR + AoA reads every bin of both passes.
    ledger.bins_read += static_cast<double>(normal[i].n_bins() +
                                            switched[i].n_bins());
    const auto [det_n, det_s] = ledger.time(kDetect, [&] {
      return std::pair{
          rr::detect_points(normal[i], config.array, fc, config.detector),
          rr::detect_points(switched[i], config.array, fc, config.detector)};
    });
    ledger.work(kDetect, static_cast<double>(det_n.size() + det_s.size()));
    ledger.time(kCloud, [&] {
      rp::accumulate(report.cloud, det_n, estimated[i], i);
      rp::accumulate(report.cloud, det_s, estimated[i], i);
    });
  }
  const auto n_points = static_cast<double>(report.cloud.points.size());
  ledger.work(kCloud, n_points);

  report.clusters = ledger.time(kDbscan, [&] {
    return rp::filter_dense(rp::extract_clusters(report.cloud, config.dbscan),
                            config.tag_detector.min_density,
                            config.tag_detector.min_points);
  });
  ledger.work(kDbscan, n_points);
  ledger.points_total += n_points;
  for (const auto& c : report.clusters) {
    ledger.points_clustered += static_cast<double>(c.n_points);
  }

  ledger.time(kClassifyDecode, [&] {
    rp::classify_and_decode_clusters(config, normal, switched, estimated,
                                     road_direction(drive),
                                     rp::decode_max_abs_u(config), report);
  });
  ledger.work(kClassifyDecode, static_cast<double>(report.clusters.size()));
  ledger.clusters_total += static_cast<double>(report.clusters.size());
  for (const auto& c : report.candidates) {
    ledger.clusters_tag += c.is_tag ? 1.0 : 0.0;
  }
  ++ledger.ops;
  return report;
}

bool same_report(const rp::InterrogationReport& a,
                 const rp::InterrogationReport& b, std::string& why) {
  if (a.clusters.size() != b.clusters.size()) {
    why = "cluster count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    if (!same_cluster(a.clusters[i], b.clusters[i])) {
      why = "cluster " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (a.candidates.size() != b.candidates.size()) {
    why = "candidate count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    if (!same_candidate(a.candidates[i], b.candidates[i])) {
      why = "candidate " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (a.tags.size() != b.tags.size()) {
    why = "decoded tag count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.tags.size(); ++i) {
    const auto& ta = a.tags[i];
    const auto& tb = b.tags[i];
    if (!same_candidate(ta.candidate, tb.candidate) ||
        ta.decode.bits != tb.decode.bits ||
        !same_doubles(ta.decode.slot_amplitudes, tb.decode.slot_amplitudes) ||
        !same_samples(ta.samples, tb.samples)) {
      why = "decoded tag " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
