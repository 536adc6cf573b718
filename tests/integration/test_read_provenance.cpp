// Decode-forensics integration: capture a read provenance bundle from
// the real pipeline and prove the acceptance properties end to end —
//   * a forced decode failure (narrow-FoV no-read) writes a bundle;
//   * `rostriage replay` reproduces the captured read bit-identically
//     under every compiled ros::simd backend and at 1 vs 4 threads;
//   * report/diff render the funnel and judge bundle identity.
//   * reads captured through a StreamingInterrogator with non-default
//     options (early emit, a bounded full-mode window) replay
//     identically, because replay re-applies the option annotations.
// The triage library is exercised in-process (same code the rostriage
// binary wraps), so these tests cover the CLI's logic too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ros/em/material.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/simd/simd.hpp"
#include "ros/testkit/scenario.hpp"
#include "triage.hpp"

namespace probe = ros::obs::probe;

namespace {

std::string fixture(const std::string& name) {
  return std::string(ROS_TESTS_SOURCE_DIR) + "/golden/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Capture one read of `s` through an engine built with `opts` — full
/// mode when `full_run`, else decode mode at the origin — with the probe
/// armed and the scenario attached. Returns the bundle path.
std::string capture_engine_read(const ros::testkit::Scenario& s,
                                bool full_run,
                                ros::pipeline::StreamingOptions opts) {
  const auto stackup = ros::em::StriplineStackup::ros_default();
  const auto scene = s.make_scene(&stackup);
  const auto drive = s.make_drive();
  const auto config = s.make_config();
  probe::set_mode(probe::Mode::always);
  probe::set_sample_period(1);
  probe::set_context(s.encode(), s.bit_vector());
  if (full_run) {
    ros::pipeline::StreamingInterrogator engine(config, scene, drive, opts);
    engine.run_frames();
    (void)engine.finalize_report();
  } else {
    ros::pipeline::StreamingInterrogator engine(
        config, scene, drive, ros::scene::Vec2{0.0, 0.0}, opts);
    engine.run_frames();
    (void)engine.finalize_decode();
  }
  probe::set_mode(probe::Mode::off);
  probe::clear_context();
  return probe::last_bundle_path();
}

bool has_stage(const ros::triage::Bundle& b, const std::string& stage) {
  for (const auto& s : b.funnel()) {
    if (s.stage == stage) return true;
  }
  return false;
}

class ReadProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "ros_provenance_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::setenv("ROS_OBS_DIAG_DIR", root_.c_str(), 1);
    probe::set_mode(probe::Mode::off);
  }
  void TearDown() override {
    probe::set_mode(probe::Mode::off);
    probe::clear_context();
    ros::exec::ThreadPool::set_global_threads(
        ros::exec::default_threads());
    ros::simd::reset_backend();
    ::unsetenv("ROS_OBS_DIAG_DIR");
  }
  std::string root_;
};

TEST_F(ReadProvenanceTest, ForcedNoReadProducesTriageableBundle) {
  const auto funnel_before = ros::obs::MetricsRegistry::global()
                                 .counter("pipeline.funnel.attempted")
                                 .value();
  const auto paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);

  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);
  EXPECT_EQ(b.kind(), "decode_drive");
  EXPECT_EQ(b.reason(), "no_read");
  ASSERT_TRUE(b.has_scenario());
  EXPECT_TRUE(b.decoded_bits().empty());
  EXPECT_EQ(b.expected_bits().size(), 4u);

  // The funnel names the stage that killed the read: the spotlight
  // detected the tag, but the truncated aperture cannot reach the
  // coding band.
  bool aperture_failed = false;
  for (const auto& s : b.funnel()) {
    if (s.stage == "synthesized" || s.stage == "detected") {
      EXPECT_TRUE(s.passed) << s.stage;
    }
    if (s.stage == "aperture") {
      aperture_failed = !s.passed;
    }
  }
  EXPECT_TRUE(aperture_failed);

  // Capturing a read also drives the pipeline.funnel.* counters.
  EXPECT_GT(ros::obs::MetricsRegistry::global()
                .counter("pipeline.funnel.attempted")
                .value(),
            funnel_before);

  const std::string text = ros::triage::report(b);
  EXPECT_NE(text.find("funnel"), std::string::npos);
  EXPECT_NE(text.find("FAIL aperture"), std::string::npos);
  EXPECT_NE(text.find("expected  1101"), std::string::npos);
}

TEST_F(ReadProvenanceTest, ReplayIsIdenticalAcrossThreadsAndBackends) {
  const auto paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto backend : ros::simd::available_backends()) {
      const auto r =
          ros::triage::replay(b, threads, ros::simd::to_string(backend));
      ASSERT_TRUE(r.ran) << r.detail;
      EXPECT_TRUE(r.identical)
          << "threads=" << threads << " backend="
          << ros::simd::to_string(backend) << ": " << r.detail;

      // The fresh bundle must also diff clean against the original
      // (stage artifacts included), modulo runtime annotations.
      const ros::triage::Bundle fresh =
          ros::triage::load_bundle(r.bundle_path);
      bool identical = false;
      const std::string d = ros::triage::diff(b, fresh, &identical);
      EXPECT_TRUE(identical) << d;
    }
  }
}

TEST_F(ReadProvenanceTest, SuccessfulReadReplaysWithMatchingPayload) {
  // Default scenario: nominal drive-by that decodes cleanly.
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);
  EXPECT_EQ(b.reason(), "capture");
  EXPECT_EQ(b.decoded_bits(), b.expected_bits())
      << "nominal scenario should decode its own payload";

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
  EXPECT_EQ(r.bits, b.expected_bits());
}

TEST_F(ReadProvenanceTest, FullRunCapturesInterrogateBundle) {
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/true);
  ASSERT_EQ(paths.size(), 2u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[1]);
  EXPECT_EQ(b.kind(), "interrogate");

  // The full pipeline records the detection stages too.
  std::vector<std::string> stages;
  for (const auto& s : b.funnel()) stages.push_back(s.stage);
  EXPECT_NE(std::find(stages.begin(), stages.end(), "clustered"),
            stages.end());

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
}

TEST_F(ReadProvenanceTest, EarlyEmitEngineReadReplaysIdentically) {
  // A 60 deg decode FoV on a jitter-free drive arms the early-emit gate:
  // the bundle carries the extra early_emit funnel stage, and replay
  // reproduces it only because it re-applies the early_emit annotation.
  ros::testkit::Scenario s;
  s.decode_fov_rad = 1.0471975511965976;
  s.sanitize();
  ros::pipeline::StreamingOptions opts;
  opts.early_emit = true;
  const std::string path = capture_engine_read(s, false, opts);
  ASSERT_FALSE(path.empty());
  const ros::triage::Bundle b = ros::triage::load_bundle(path);
  EXPECT_EQ(b.kind(), "decode_drive");
  EXPECT_TRUE(has_stage(b, "early_emit"));
  EXPECT_EQ(b.decoded_bits(), b.expected_bits());

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
  bool identical = false;
  const std::string d =
      ros::triage::diff(b, ros::triage::load_bundle(r.bundle_path),
                        &identical);
  EXPECT_TRUE(identical) << d;
}

TEST_F(ReadProvenanceTest, WindowedFullModeEngineReadReplaysIdentically) {
  // A bounded full-mode window reports only the surviving frames; the
  // replay must run the same window to reproduce the funnel.
  ros::testkit::Scenario s;
  s.clutter.push_back({0, 1.3, 0.4});
  s.sanitize();
  ros::pipeline::StreamingOptions opts;
  opts.window_frames = 120;
  const std::string path = capture_engine_read(s, true, opts);
  ASSERT_FALSE(path.empty());
  const ros::triage::Bundle b = ros::triage::load_bundle(path);
  EXPECT_EQ(b.kind(), "interrogate");
  EXPECT_TRUE(has_stage(b, "clustered"));

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
  bool identical = false;
  const std::string d =
      ros::triage::diff(b, ros::triage::load_bundle(r.bundle_path),
                        &identical);
  EXPECT_TRUE(identical) << d;
}

TEST_F(ReadProvenanceTest, CodebookCaptureReportsScoresAndReplays) {
  // A bundle captured under the codebook backend records the backend in
  // its annotations, renders the per-codeword correlation table, and
  // replays bit-identically even when ROS_DECODER is no longer set
  // (replay pins the recorded backend for the digest + run).
  ::setenv("ROS_DECODER", "codebook", 1);
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/false);
  ::unsetenv("ROS_DECODER");
  ASSERT_EQ(paths.size(), 1u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);
  EXPECT_EQ(b.decoded_bits(), b.expected_bits());

  const std::string text = ros::triage::report(b);
  EXPECT_NE(text.find("decoder_backend=codebook"), std::string::npos);
  EXPECT_NE(text.find("codeword correlation"), std::string::npos);
  EXPECT_NE(text.find("<- best"), std::string::npos);

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
  EXPECT_EQ(nullptr, std::getenv("ROS_DECODER"))
      << "replay must restore the ROS_DECODER environment";

  // Explicitly matching backend is fine; a conflicting one refuses with
  // an actionable message instead of comparing incomparable bits.
  const auto match = ros::triage::replay(b, 0, {}, "codebook");
  EXPECT_TRUE(match.ran) << match.detail;
  EXPECT_TRUE(match.identical) << match.detail;
  const auto conflict = ros::triage::replay(b, 0, {}, "fft");
  EXPECT_FALSE(conflict.ran);
  EXPECT_NE(conflict.detail.find("captured with decoder backend"),
            std::string::npos)
      << conflict.detail;
  const auto unknown = ros::triage::replay(b, 0, {}, "bogus");
  EXPECT_FALSE(unknown.ran);
  EXPECT_NE(unknown.detail.find("unknown decoder backend"),
            std::string::npos);
}

TEST_F(ReadProvenanceTest, DiffFlagsDivergentBundles) {
  const auto a_paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), false);
  const auto b_paths =
      ros::triage::capture("# roztest scenario v1\n", false);
  const ros::triage::Bundle a = ros::triage::load_bundle(a_paths[0]);
  const ros::triage::Bundle b = ros::triage::load_bundle(b_paths[0]);
  bool identical = true;
  const std::string d = ros::triage::diff(a, b, &identical);
  EXPECT_FALSE(identical);
  EXPECT_NE(d.find("DIFFER"), std::string::npos);
}

TEST_F(ReadProvenanceTest, LoadBundleRejectsNonBundles) {
  const std::string path = ::testing::TempDir() + "not_a_bundle.json";
  std::ofstream(path) << "{\"schema\":\"something-else\"}";
  EXPECT_THROW(ros::triage::load_bundle(path), std::runtime_error);
  EXPECT_THROW(ros::triage::load_bundle(path + ".missing"),
               std::runtime_error);
}

}  // namespace
