// Beamformed RCS/RSS sampling of a tracked object across a drive-by
// (paper Sec. 6): for every frame, steer the Rx array at the object's
// known world position ("spotlight") and record the received power
// together with the viewing coordinate u = sin(view angle).
#pragma once

#include <span>
#include <vector>

#include "ros/radar/processing.hpp"
#include "ros/scene/geometry.hpp"

namespace ros::pipeline {

struct RssSample {
  double u = 0.0;          ///< sin of the view angle along the road axis
  double rss_dbm = 0.0;
  double rss_w = 0.0;      ///< linear power (decoder input)
  double range_m = 0.0;
  std::size_t frame = 0;
};

/// Sample the beamformed RSS of the object at `target` (world) across all
/// frames. `poses` are the (estimated) radar poses per frame;
/// `road_direction` is the unit vector of vehicle travel, which defines
/// the u axis (the tag face is parallel to the road).
std::vector<RssSample> sample_rss(
    std::span<const ros::radar::RangeProfile> profiles,
    std::span<const ros::scene::RadarPose> poses,
    const ros::scene::Vec2& target, const ros::scene::Vec2& road_direction,
    const ros::radar::RadarArray& array, double hz);

/// One frame of the batch loop above: spotlight `target` from `pose` in
/// `profile` and write the sample to `out` with out.frame =
/// `frame_index`. Returns false (leaving `out` untouched) for the
/// degenerate zero-range pose that the batch loop skips. The streaming
/// engine calls this per consumed frame; appending every true result
/// reproduces the batch sample vector bit for bit (with batch frame
/// indices being span-relative).
bool sample_rss_frame(const ros::radar::RangeProfile& profile,
                      const ros::scene::RadarPose& pose,
                      const ros::scene::Vec2& target,
                      const ros::scene::Vec2& road_direction,
                      const ros::radar::RadarArray& array, double hz,
                      std::size_t frame_index, RssSample& out);

/// Default RSS floor of the decoder series: low enough to keep every
/// physical sample.
inline constexpr double kDecoderSeriesFloorDbm = -1e9;

/// Split samples into u / linear-power vectors for the decoder, keeping
/// only samples within `max_abs_u` (angular-FoV truncation, Fig. 17) and
/// above `min_rss_dbm`.
struct DecoderSeries {
  std::vector<double> u;
  std::vector<double> rss_linear;
};
DecoderSeries to_decoder_series(
    std::span<const RssSample> samples, double max_abs_u = 1.0,
    double min_rss_dbm = kDecoderSeriesFloorDbm);

}  // namespace ros::pipeline
