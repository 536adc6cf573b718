// Naive reference pipeline (ros::testkit): an executable spec of the
// paper Sec. 6 read, independent of the StreamingInterrogator that
// `decode_drive` and `Interrogator::run` are built on.
//
// Serial, whole-drive, and plain: every frame is synthesized in index
// order from the public stage functions (Scene::frame_returns_into,
// WaveformSynthesizer::synthesize_into, range_fft_into, detect_points)
// with FrameStage's RNG draw order; the drive is tracked in one batch
// TrackingModel::estimate call; the point cloud is clustered once with
// batch extract_clusters + filter_dense; spotlight sampling, the
// decoder series, and the mean RSS use the whole-drive sample_rss,
// to_decoder_series, and mean_rss_dbm. No arena, no observability, no
// probe, no early emit, no sliding window.
//
// The equivalence suites compare the engine against these functions
// bit for bit (no epsilon), which checks the incremental DBSCAN against
// batch extract_clusters and the per-frame spotlight + running RSS mean
// against sample_rss + mean_rss_dbm.
#pragma once

#include "ros/pipeline/interrogator.hpp"

namespace ros::testkit {

/// Reference for ros::pipeline::decode_drive: samples, decode, mean RSS,
/// and telemetry.n_frames.
ros::pipeline::DecodeDriveResult reference_decode_drive(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::scene::Vec2& tag_position,
    const ros::pipeline::InterrogatorConfig& config = {});

/// Reference for ros::pipeline::Interrogator::run: n_frames, cloud,
/// clusters, candidates, and decoded tags.
ros::pipeline::InterrogationReport reference_interrogate(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::pipeline::InterrogatorConfig& config = {});

}  // namespace ros::testkit
