// rostriage: inspection library for ros-read-provenance-v1 bundles
// (decode forensics). The CLI in rostriage_main.cpp is a thin argv
// wrapper; everything testable lives here.
//
//   load_bundle   parse + schema-check a bundle file
//   report        render the funnel + per-stage artifacts as text
//   replay        re-run the captured read from the embedded scenario
//                 and compare bits + funnel verdicts (bit-identical by
//                 construction: the scenario carries the master noise
//                 seed and every frame stream re-derives from it)
//   diff          compare two bundles (e.g. scalar vs AVX2 captures)
//   capture       force-capture a read from a scenario (CI smoke /
//                 triage entry point when you have a scenario, not yet
//                 a bundle)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ros/obs/json_parse.hpp"

namespace ros::triage {

struct FunnelStage {
  std::string stage;
  bool passed = false;
  std::string detail;
};

struct Bundle {
  std::string path;
  ros::obs::JsonValue doc;

  std::string kind() const;
  std::string reason() const;
  std::string digest() const;
  std::uint64_t noise_seed() const;
  bool has_scenario() const;
  std::string scenario_text() const;
  std::vector<bool> expected_bits() const;
  std::vector<bool> decoded_bits() const;
  bool has_decoded_bits() const;
  std::vector<FunnelStage> funnel() const;
};

/// Parse `path` as a provenance bundle. Throws std::runtime_error with
/// a actionable message on unreadable file / bad JSON / wrong schema.
Bundle load_bundle(const std::string& path);

/// Human-readable report: header, funnel with pass/fail marks, bit
/// table with decision margins, artifact summaries and an ASCII
/// rendering of the coding-band spectrum.
std::string report(const Bundle& bundle);

struct ReplayResult {
  bool ran = false;      ///< false: no scenario / digest mismatch
  bool identical = false;///< bits + funnel verdicts reproduced exactly
  std::string detail;    ///< first mismatch, or why replay could not run
  std::vector<bool> bits;
  std::vector<FunnelStage> funnel;
  std::string bundle_path;  ///< fresh bundle captured during the replay
};

/// Re-run the read in the bundle's mode (kind "interrogate" = full
/// mode, otherwise decode mode at the annotated tag position) with the
/// engine options it ran under (the `window_frames` / `early_emit`
/// annotations). `threads` > 0 pins the ros::exec pool width for the
/// replay (restored afterwards); 0 keeps the current pool.
/// `simd_backend` non-empty forces that ros::simd backend (restored
/// afterwards); unknown/uncompiled backends fail with ran = false.
/// `decoder` non-empty must match the bundle's recorded decoder backend
/// annotation — a replay under a different backend would not produce
/// comparable bits, so a conflict refuses with ran = false. Empty
/// replays under the recorded backend (pinned via ROS_DECODER for the
/// duration of the replay, restored afterwards).
ReplayResult replay(const Bundle& bundle, std::size_t threads = 0,
                    const std::string& simd_backend = {},
                    const std::string& decoder = {});

/// Textual diff of two bundles: kind/digest/reason, funnel verdicts,
/// decoded bits, and per-slot amplitudes (compared to JSON serialization
/// precision, 12 significant digits). Sets *identical accordingly.
std::string diff(const Bundle& a, const Bundle& b, bool* identical);

/// Force-capture one read of `scenario_text` (testkit format): arms the
/// probe in always mode with the scenario as context, runs decode_drive
/// (and Interrogator::run too when `full_run`), restores probe state,
/// and returns the bundle path(s) written.
std::vector<std::string> capture(const std::string& scenario_text,
                                 bool full_run);

}  // namespace ros::triage
