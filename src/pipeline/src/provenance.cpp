#include "ros/pipeline/provenance.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ros/common/random.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/json.hpp"
#include "ros/obs/probe.hpp"
#include "ros/simd/simd.hpp"

namespace ros::pipeline {

namespace {

using ros::obs::JsonWriter;

/// FNV-1a, folded field by field. Doubles hash by bit pattern, so the
/// digest distinguishes -0.0 from 0.0 — good: it promises bit-identical
/// replay, not "approximately the same experiment".
class Digest {
 public:
  Digest& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  Digest& mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(bits);
  }
  Digest& mix(int v) { return mix(static_cast<std::uint64_t>(v)); }
  Digest& mix(bool v) { return mix(std::uint64_t{v ? 1u : 0u}); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Decimation stride so that n points fit in max_points slots.
std::size_t stride_for(std::size_t n, std::size_t max_points) {
  if (max_points == 0 || n <= max_points) return 1;
  return (n + max_points - 1) / max_points;
}

void write_decimated(JsonWriter& w, std::span<const double> v,
                     std::size_t stride) {
  w.begin_array();
  for (std::size_t i = 0; i < v.size(); i += stride) w.value(v[i]);
  w.end_array();
}

}  // namespace

std::uint64_t config_digest(const InterrogatorConfig& c) {
  Digest d;
  d.mix(c.chirp.slope_hz_per_s)
      .mix(c.chirp.sample_rate_hz)
      .mix(c.chirp.n_samples)
      .mix(c.chirp.start_hz)
      .mix(c.chirp.frame_rate_hz);
  d.mix(c.array.n_rx)
      .mix(c.array.rx_spacing_m)
      .mix(static_cast<int>(c.array.rx_pol))
      .mix(c.array.fov_half_angle_rad)
      .mix(c.array.pattern_exponent);
  d.mix(c.budget.eirp_dbm)
      .mix(c.budget.rx_antenna_gain_db)
      .mix(c.budget.rx_chain_gain_db)
      .mix(c.budget.rx_processing_gain_db)
      .mix(c.budget.noise_figure_db)
      .mix(c.budget.if_bandwidth_hz)
      .mix(c.budget.frequency_hz);
  d.mix(c.detector.cfar.guard_cells)
      .mix(c.detector.cfar.training_cells)
      .mix(c.detector.cfar.threshold_db)
      .mix(c.detector.n_angles)
      .mix(c.detector.min_range_m)
      .mix(c.detector.max_aoa_peaks)
      .mix(c.detector.aoa_peak_min_rel);
  d.mix(c.dbscan.eps_m).mix(c.dbscan.min_points);
  d.mix(c.tag_detector.max_rss_loss_db)
      .mix(c.tag_detector.max_size_m2)
      .mix(c.tag_detector.min_density)
      .mix(c.tag_detector.min_points);
  d.mix(c.decoder.n_bits)
      .mix(c.decoder.unit_spacing_lambda)
      .mix(c.decoder.design_hz)
      .mix(c.decoder.slot_tolerance_lambda)
      .mix(c.decoder.threshold)
      .mix(c.decoder.min_modulation)
      .mix(c.decoder.spectrum.resample_points)
      .mix(c.decoder.spectrum.zero_pad_factor)
      .mix(static_cast<int>(c.decoder.spectrum.window))
      .mix(c.decoder.spectrum.remove_mean)
      .mix(c.decoder.spectrum.whiten_envelope)
      .mix(c.decoder.spectrum.whiten_window);
  // The decode engine changes bits at low SNR, so it is part of the
  // experiment identity. Mix the *resolved* backend: a bundle captured
  // under ROS_DECODER=codebook must not replay silently through fft.
  d.mix(static_cast<int>(
       ros::tag::resolve_decoder_backend(c.decoder.backend)))
      .mix(c.decoder.codebook.canonical_u_span)
      .mix(c.decoder.codebook.probe_offset_lambda)
      .mix(c.decoder.codebook.probes_per_side);
  d.mix(c.tracking.relative_drift)
      .mix(c.tracking.jitter_std_m)
      .mix(c.tracking.seed);
  d.mix(c.decode_fov_rad)
      .mix(c.frame_stride)
      .mix(c.extra_noise_dbm)
      .mix(c.noise_seed);
  return d.value();
}

std::string samples_json(std::span<const RssSample> samples,
                         std::size_t max_points) {
  const std::size_t stride = stride_for(samples.size(), max_points);
  JsonWriter w;
  w.begin_object();
  w.key("n_samples").value(static_cast<std::uint64_t>(samples.size()));
  w.key("stride").value(static_cast<std::uint64_t>(stride));
  w.key("u").begin_array();
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    w.value(samples[i].u);
  }
  w.end_array();
  w.key("rss_dbm").begin_array();
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    w.value(samples[i].rss_dbm);
  }
  w.end_array();
  w.key("range_m").begin_array();
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    w.value(samples[i].range_m);
  }
  w.end_array();
  w.key("frame").begin_array();
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    w.value(static_cast<std::uint64_t>(samples[i].frame));
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string spectrum_json(const ros::dsp::RcsSpectrum& spectrum,
                          std::size_t max_points) {
  const std::size_t stride =
      stride_for(spectrum.amplitude.size(), max_points);
  JsonWriter w;
  w.begin_object();
  w.key("u_span").value(spectrum.u_span);
  w.key("resolution_lambda").value(spectrum.resolution_lambda);
  w.key("n_bins")
      .value(static_cast<std::uint64_t>(spectrum.amplitude.size()));
  w.key("stride").value(static_cast<std::uint64_t>(stride));
  w.key("spacing_lambda");
  write_decimated(w, spectrum.spacing_lambda, stride);
  w.key("amplitude");
  write_decimated(w, spectrum.amplitude, stride);
  w.end_object();
  return w.take();
}

std::string spectrum_tap_json(const ros::dsp::SpectrumTap& tap) {
  JsonWriter w;
  w.begin_object();
  w.key("fft_size").value(static_cast<std::uint64_t>(tap.fft_size));
  w.key("u_grid");
  write_decimated(w, tap.u_grid, 1);
  w.key("resampled");
  write_decimated(w, tap.resampled, 1);
  w.key("whitened");
  write_decimated(w, tap.whitened, 1);
  w.end_object();
  return w.take();
}

std::string bit_margins_json(const ros::tag::DecodeResult& decode,
                             const ros::tag::DecoderConfig& config) {
  JsonWriter w;
  w.begin_object();
  w.key("threshold").value(decode.threshold);
  w.key("min_modulation").value(config.min_modulation);
  w.key("band_rms").value(decode.band_rms);
  w.key("slots").begin_array();
  const ros::tag::SpatialDecoder decoder(config);
  for (std::size_t k = 0; k < decode.bits.size(); ++k) {
    w.begin_object();
    w.key("slot").value(static_cast<std::uint64_t>(k + 1));
    w.key("spacing_lambda")
        .value(decoder.slot_spacing_lambda(static_cast<int>(k + 1)));
    if (k < decode.slot_amplitudes.size()) {
      w.key("amplitude").value(decode.slot_amplitudes[k]);
      w.key("margin").value(decode.slot_amplitudes[k] - decode.threshold);
    }
    if (k < decode.slot_modulation.size()) {
      w.key("modulation").value(decode.slot_modulation[k]);
    }
    w.key("bit").value(static_cast<bool>(decode.bits[k]));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string codeword_scores_json(const ros::tag::DecodeResult& decode) {
  JsonWriter w;
  w.begin_object();
  w.key("backend").value(ros::tag::to_string(decode.backend_used));
  w.key("best_codeword")
      .value(static_cast<std::uint64_t>(decode.best_codeword));
  w.key("score_margin").value(decode.score_margin);
  if (decode.backend_used == ros::tag::DecoderBackend::cross_check) {
    w.key("cross_check_mismatch").value(decode.cross_check_mismatch);
  }
  w.key("scores").begin_array();
  for (const double s : decode.codeword_scores) w.value(s);
  w.end_array();
  w.end_object();
  return w.take();
}

std::string pointcloud_json(const PointCloud& cloud,
                            std::size_t max_points) {
  const std::size_t stride = stride_for(cloud.points.size(), max_points);
  JsonWriter w;
  w.begin_object();
  w.key("n_points").value(static_cast<std::uint64_t>(cloud.points.size()));
  w.key("stride").value(static_cast<std::uint64_t>(stride));
  w.key("x").begin_array();
  for (std::size_t i = 0; i < cloud.points.size(); i += stride) {
    w.value(cloud.points[i].world.x);
  }
  w.end_array();
  w.key("y").begin_array();
  for (std::size_t i = 0; i < cloud.points.size(); i += stride) {
    w.value(cloud.points[i].world.y);
  }
  w.end_array();
  w.key("rss_dbm").begin_array();
  for (std::size_t i = 0; i < cloud.points.size(); i += stride) {
    w.value(cloud.points[i].rss_dbm);
  }
  w.end_array();
  w.key("frame").begin_array();
  for (std::size_t i = 0; i < cloud.points.size(); i += stride) {
    w.value(static_cast<std::uint64_t>(cloud.points[i].frame));
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string clusters_json(std::span<const Cluster> clusters,
                          std::size_t max_indices_per_cluster) {
  JsonWriter w;
  w.begin_object();
  w.key("n_clusters").value(static_cast<std::uint64_t>(clusters.size()));
  w.key("clusters").begin_array();
  for (const Cluster& c : clusters) {
    w.begin_object();
    w.key("centroid_x").value(c.centroid.x);
    w.key("centroid_y").value(c.centroid.y);
    w.key("n_points").value(static_cast<std::uint64_t>(c.n_points));
    w.key("density").value(c.density);
    w.key("size_m2").value(c.size_m2);
    w.key("extent_m").value(c.extent_m);
    w.key("mean_rss_dbm").value(c.mean_rss_dbm);
    const std::size_t n =
        std::min(c.point_indices.size(), max_indices_per_cluster);
    w.key("point_indices").begin_array();
    for (std::size_t i = 0; i < n; ++i) {
      w.value(static_cast<std::uint64_t>(c.point_indices[i]));
    }
    w.end_array();
    w.key("point_indices_truncated")
        .value(c.point_indices.size() > max_indices_per_cluster);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string candidates_json(std::span<const TagCandidate> candidates) {
  JsonWriter w;
  w.begin_object();
  w.key("n_candidates")
      .value(static_cast<std::uint64_t>(candidates.size()));
  w.key("candidates").begin_array();
  for (const TagCandidate& c : candidates) {
    w.begin_object();
    w.key("centroid_x").value(c.cluster.centroid.x);
    w.key("centroid_y").value(c.cluster.centroid.y);
    w.key("rss_normal_dbm").value(c.rss_normal_dbm);
    w.key("rss_switched_dbm").value(c.rss_switched_dbm);
    w.key("rss_loss_db").value(c.rss_loss_db);
    w.key("is_tag").value(c.is_tag);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void RangeFftSummary::reset(std::size_t n_frames) {
  pass_frames = n_frames;
  peak_power.clear();
  peak_power.reserve(n_frames);
  snapshot_frames.clear();
  snapshots.clear();
}

void RangeFftSummary::add(std::size_t i,
                          const ros::radar::RangeProfile& profile) {
  double peak = 0.0;
  for (std::size_t b = 0; b < profile.n_bins(); ++b) {
    double acc = 0.0;
    for (const auto& rx : profile.bins) acc += std::norm(rx[b]);
    peak = std::max(peak, acc);
  }
  peak_power.push_back(peak);
  const std::size_t n = pass_frames;
  if (i == 0 || (n > 2 && i == n / 2) || (n > 1 && i == n - 1)) {
    snapshot_frames.push_back(i);
    snapshots.push_back(profile);
  }
}

std::string range_fft_json(const RangeFftSummary& summary,
                           std::uint64_t noise_seed, std::size_t max_bins,
                           std::size_t max_frames) {
  JsonWriter w;
  w.begin_object();
  w.key("n_frames").value(
      static_cast<std::uint64_t>(summary.peak_power.size()));

  // Per-frame peak power: the funnel-level view of where along the
  // drive the target was visible.
  const std::size_t frame_stride =
      stride_for(summary.peak_power.size(), max_frames);
  w.key("frame_stride").value(static_cast<std::uint64_t>(frame_stride));
  w.key("peak_power");
  write_decimated(w, summary.peak_power, frame_stride);

  // Full magnitude snapshots of representative frames, with the RNG
  // stream seed each one drew its noise from.
  w.key("snapshots").begin_array();
  for (std::size_t k = 0; k < summary.snapshots.size(); ++k) {
    const auto& p = summary.snapshots[k];
    const std::size_t i = summary.snapshot_frames[k];
    const std::size_t bin_stride = stride_for(p.n_bins(), max_bins);
    w.begin_object();
    w.key("frame").value(static_cast<std::uint64_t>(i));
    w.key("rng_stream_seed")
        .value(ros::common::derive_stream_seed(noise_seed, i));
    w.key("bin_spacing_m").value(p.bin_spacing_m);
    w.key("bin_stride").value(static_cast<std::uint64_t>(bin_stride));
    w.key("power").begin_array();
    for (std::size_t b = 0; b < p.n_bins(); b += bin_stride) {
      double acc = 0.0;
      for (const auto& rx : p.bins) acc += std::norm(rx[b]);
      w.value(acc);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string range_profiles_json(
    std::span<const ros::radar::RangeProfile> profiles,
    std::uint64_t noise_seed) {
  RangeFftSummary summary;
  summary.reset(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    summary.add(i, profiles[i]);
  }
  return range_fft_json(summary, noise_seed);
}

void annotate_probe_runtime() {
  namespace probe = ros::obs::probe;
  if (!probe::capturing()) return;
  probe::annotate("threads",
                  static_cast<double>(
                      ros::exec::ThreadPool::global().threads()));
  probe::annotate("simd_backend",
                  ros::simd::to_string(ros::simd::active_backend()));
}

}  // namespace ros::pipeline
