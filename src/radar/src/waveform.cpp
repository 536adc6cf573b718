#include "ros/radar/waveform.hpp"

#include <cmath>
#include <cstdint>

#include "ros/common/expect.hpp"
#include "ros/simd/simd.hpp"

namespace ros::radar {

using namespace ros::common;

WaveformSynthesizer::WaveformSynthesizer(FmcwChirp chirp, RadarArray array)
    : chirp_(chirp), array_(array) {
  ROS_EXPECT(chirp.n_samples > 0, "need at least one sample");
  ROS_EXPECT(array.n_rx > 0, "need at least one Rx antenna");
}

FrameCube WaveformSynthesizer::synthesize(
    std::span<const ScatterReturn> returns, double noise_power_w,
    Rng& rng) const {
  FrameCube frame;
  synthesize_into(returns, noise_power_w, rng, frame);
  return frame;
}

void WaveformSynthesizer::synthesize_into(
    std::span<const ScatterReturn> returns, double noise_power_w,
    Rng& rng, FrameCube& frame) const {
  ROS_EXPECT(noise_power_w >= 0.0, "noise power must be non-negative");
  const auto n_rx = static_cast<std::size_t>(array_.n_rx);
  const auto n_s = static_cast<std::size_t>(chirp_.n_samples);
  // Reuse the caller's storage when the shape already matches (the
  // frame-loop case); only a cold first call allocates.
  if (frame.size() != n_rx) frame.resize(n_rx);
  for (auto& chan : frame) chan.assign(n_s, cplx{0.0, 0.0});

  const double fc = chirp_.center_hz();
  const double lambda = kSpeedOfLight / fc;
  const double d_rx = array_.rx_spacing(fc);
  const double dt = 1.0 / chirp_.sample_rate_hz;
  const auto& tone = ros::simd::ops().tone_acc;

  for (const ScatterReturn& r : returns) {
    if (r.amplitude <= 0.0) continue;
    const double f_beat = chirp_.beat_frequency_hz(r.range_m) + r.doppler_hz;
    // Carrier phase from the round trip at the chirp start frequency
    // (Eq. 2's first phase term), plus the reflector's own phase.
    const double phi0 =
        -4.0 * kPi * r.range_m * chirp_.start_hz / kSpeedOfLight +
        r.phase_rad;
    const double sin_az = std::sin(r.azimuth_rad);
    // Per-sample phase advances linearly: one tone per (return, rx).
    const double dphase = 2.0 * kPi * f_beat * dt;
    for (std::size_t k = 0; k < n_rx; ++k) {
      // Eq. 2's second phase term: the inter-antenna delay.
      const double phi_ant =
          2.0 * kPi * static_cast<double>(k) * d_rx * sin_az / lambda;
      tone(frame[k].data(), r.amplitude, phi0 + phi_ant, dphase, n_s);
    }
  }

  // Noise draws one key word; sample i of Rx k is counter k·n_s + i of
  // that key (DESIGN.md §7). Power 0 draws nothing.
  if (noise_power_w > 0.0) {
    const std::uint64_t key = rng.next_u64();
    const double sigma = std::sqrt(noise_power_w / 2.0);
    const auto& awgn = ros::simd::ops().awgn_acc;
    for (std::size_t k = 0; k < n_rx; ++k) {
      awgn(frame[k].data(), sigma, key, k * n_s, n_s);
    }
  }
}

}  // namespace ros::radar
