// Traced replays: the decode-mode and full-mode pipelines re-run from
// outside, one public call per layer in the order the entry points make
// them, each call timed into a Ledger. Synthesis is split into a tones
// call (zero noise power, which draws no RNG) and a noise call (no
// returns); their sum is exactly the single call's cube.
#pragma once

#include <string>

#include "perfbench.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"

namespace perfbench {

/// Layer-by-layer replay of pipeline::decode_drive.
ros::pipeline::DecodeDriveResult replay_decode_drive(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::scene::Vec2& tag_position,
    const ros::pipeline::InterrogatorConfig& config, Ledger& ledger);

/// Layer-by-layer replay of pipeline::Interrogator::run.
ros::pipeline::InterrogationReport replay_interrogate(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::pipeline::InterrogatorConfig& config, Ledger& ledger);

/// Bitwise equality of clusters, candidates and decoded tags; on a
/// mismatch returns false and names the first differing field in `why`.
bool same_report(const ros::pipeline::InterrogationReport& a,
                 const ros::pipeline::InterrogationReport& b,
                 std::string& why);

}  // namespace perfbench
