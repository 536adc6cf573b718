#include "ros/testkit/reference.hpp"

#include <algorithm>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/tag/codebook.hpp"

namespace ros::testkit {

namespace rp = ros::pipeline;
namespace rr = ros::radar;
namespace rs = ros::scene;

namespace {

/// Ground truth at the pipeline's frame rate, and its tracking estimate.
struct Track {
  std::vector<rs::RadarPose> truth;
  std::vector<rs::RadarPose> estimated;
};

Track track(const rs::StraightDrive& drive,
            const rp::InterrogatorConfig& config) {
  rp::validate(config);
  Track t;
  t.truth = drive.frames(config.chirp.frame_rate_hz /
                         static_cast<double>(config.frame_stride));
  t.estimated = rs::TrackingModel(config.tracking).estimate(t.truth);
  return t;
}

rs::Vec2 road_of(const rs::StraightDrive& drive) {
  return drive.velocity() * (1.0 / std::max(drive.velocity().norm(), 1e-9));
}

/// Tones + noise, then the range FFT, for one Tx pass.
rr::RangeProfile profile_of(const std::vector<rr::ScatterReturn>& returns,
                            const rp::InterrogatorConfig& config,
                            const rr::WaveformSynthesizer& synth,
                            ros::common::Rng& rng) {
  rr::FrameCube cube;
  synth.synthesize_into(returns, rp::combined_noise_w(config), rng, cube);
  rr::RangeProfile profile;
  rr::range_fft_into(cube, config.chirp, ros::dsp::Window::hann, profile);
  return profile;
}

}  // namespace

rp::DecodeDriveResult reference_decode_drive(
    const rs::Scene& scene, const rs::StraightDrive& drive,
    const rs::Vec2& tag_position, const rp::InterrogatorConfig& config) {
  const Track t = track(drive, config);
  const double fc = config.chirp.center_hz();
  const rr::WaveformSynthesizer synth(config.chirp, config.array);
  std::vector<rr::RangeProfile> profiles;
  for (std::size_t i = 0; i < t.truth.size(); ++i) {
    ros::common::Rng rng(
        ros::common::derive_stream_seed(config.noise_seed, i));
    std::vector<rs::ScatterPoint> points;
    std::vector<rr::ScatterReturn> returns;
    scene.frame_returns_into(t.truth[i], rr::TxMode::switched, config.array,
                             config.budget, fc, rng, points, returns);
    profiles.push_back(profile_of(returns, config, synth, rng));
  }

  rp::DecodeDriveResult out;
  out.samples = rp::sample_rss(profiles, t.estimated, tag_position,
                               road_of(drive), config.array, fc);
  const auto series =
      rp::to_decoder_series(out.samples, rp::decode_max_abs_u(config));
  const ros::tag::TagDecoder decoder(config.decoder);
  if (decoder.can_decode(series.u)) {
    out.decode = decoder.decode(series.u, series.rss_linear);
  }
  out.mean_rss_dbm = rp::mean_rss_dbm(out.samples);
  out.telemetry.n_frames = t.truth.size();
  return out;
}

rp::InterrogationReport reference_interrogate(
    const rs::Scene& scene, const rs::StraightDrive& drive,
    const rp::InterrogatorConfig& config) {
  const Track t = track(drive, config);
  const double fc = config.chirp.center_hz();
  const rr::WaveformSynthesizer synth(config.chirp, config.array);
  rp::InterrogationReport report;
  report.n_frames = t.truth.size();
  std::vector<rr::RangeProfile> normal;
  std::vector<rr::RangeProfile> switched;
  for (std::size_t i = 0; i < t.truth.size(); ++i) {
    // FrameStage::run_full draw order: returns normal, returns switched,
    // noise normal, noise switched.
    ros::common::Rng rng(
        ros::common::derive_stream_seed(config.noise_seed, i));
    std::vector<rs::ScatterPoint> points;
    std::vector<rr::ScatterReturn> ret_normal;
    std::vector<rr::ScatterReturn> ret_switched;
    scene.frame_returns_into(t.truth[i], rr::TxMode::normal, config.array,
                             config.budget, fc, rng, points, ret_normal);
    scene.frame_returns_into(t.truth[i], rr::TxMode::switched, config.array,
                             config.budget, fc, rng, points, ret_switched);
    normal.push_back(profile_of(ret_normal, config, synth, rng));
    switched.push_back(profile_of(ret_switched, config, synth, rng));
    rp::accumulate(report.cloud,
                   rr::detect_points(normal.back(), config.array, fc,
                                     config.detector),
                   t.estimated[i], i);
    rp::accumulate(report.cloud,
                   rr::detect_points(switched.back(), config.array, fc,
                                     config.detector),
                   t.estimated[i], i);
  }
  report.clusters = rp::filter_dense(
      rp::extract_clusters(report.cloud, config.dbscan),
      config.tag_detector.min_density, config.tag_detector.min_points);
  rp::classify_and_decode_clusters(config, normal, switched, t.estimated,
                                   road_of(drive),
                                   rp::decode_max_abs_u(config), report);
  return report;
}

}  // namespace ros::testkit
