// Crash diagnostics: bundle writing, fatal-signal handlers (verified
// end-to-end with death tests — the crashed child must leave a
// complete, parseable bundle), and the stall watchdog.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

#include "ros/obs/crash.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/json_parse.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/obs/window.hpp"

namespace ro = ros::obs;
namespace fs = std::filesystem;

namespace {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

/// Assert `path` exists and parses as one JSON document.
void expect_valid_json_file(const std::string& path) {
  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty()) << path;
  std::string err;
  const auto doc = ro::json_parse(body, &err);
  EXPECT_TRUE(doc.has_value()) << path << ": " << err;
}

/// The single bundle directory under `root` whose name starts with
/// `reason`-; empty string if none.
std::string find_bundle(const std::string& root,
                        const std::string& reason) {
  if (!fs::exists(root)) return {};
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind(reason + "-", 0) == 0) {
      return entry.path().string();
    }
  }
  return {};
}

}  // namespace

TEST(DiagnosticsBundle, DirectWriteProducesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_direct";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);

  auto& reg = ro::MetricsRegistry::global();
  reg.counter("crashtest.bundle").inc(11);
  ro::FlightRecorder::global().record(
      ro::FlightKind::mark,
      ro::FlightRecorder::global().intern("crashtest.mark"), 1);

  const std::string dir = ro::write_diagnostics_bundle("selftest");
  ::unsetenv("ROS_OBS_DIAG_DIR");
  ASSERT_FALSE(dir.empty());
  EXPECT_EQ(dir.rfind(root + "/selftest-", 0), 0u) << dir;

  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");
  expect_valid_json_file(dir + "/series.json");

  const auto metrics = ro::json_parse(read_file(dir + "/metrics.json"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_DOUBLE_EQ(
      metrics->at("counters", "crashtest.bundle")->number_or(0), 11.0);

  const auto prov = ro::json_parse(read_file(dir + "/provenance.json"));
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->at("schema")->string, "ros-provenance-v1");
  EXPECT_EQ(prov->at("reason")->string, "selftest");
  ASSERT_NE(prov->at("build", "compiler"), nullptr);
  ASSERT_NE(prov->at("host", "arch"), nullptr);
  EXPECT_GT(prov->at("pid")->number_or(0), 0.0);
  fs::remove_all(root);
}

TEST(DiagnosticsBundle, SequenceNumbersKeepBundlesApart) {
  const std::string root = ::testing::TempDir() + "ros_diag_seq";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  const std::string a = ro::write_diagnostics_bundle("dup");
  const std::string b = ro::write_diagnostics_bundle("dup");
  ::unsetenv("ROS_OBS_DIAG_DIR");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a, b);
  fs::remove_all(root);
}

using CrashHandlerDeathTest = ::testing::Test;

TEST(CrashHandlerDeathTest, AbortLeavesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_abort";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  // The child installs the handlers, crashes, and must still die by
  // SIGABRT (the handler re-raises with the default disposition).
  EXPECT_DEATH(
      {
        ros::obs::install_crash_handlers();
        std::abort();
      },
      "");
  ::unsetenv("ROS_OBS_DIAG_DIR");

  const std::string dir = find_bundle(root, "sigabrt");
  ASSERT_FALSE(dir.empty()) << "no sigabrt bundle under " << root;
  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");
  const auto prov = ro::json_parse(read_file(dir + "/provenance.json"));
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->at("reason")->string, "sigabrt");
  fs::remove_all(root);
}

TEST(CrashHandlerDeathTest, SegfaultLeavesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_segv";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  EXPECT_DEATH(
      {
        ros::obs::install_crash_handlers();
        // Record something first so the flight tail is non-trivial.
        auto& fr = ros::obs::FlightRecorder::global();
        fr.record(ros::obs::FlightKind::mark,
                  fr.intern("crashtest.presegv"), 123);
        volatile int* p = nullptr;
        *p = 1;  // NOLINT: deliberate fault
      },
      "");
  ::unsetenv("ROS_OBS_DIAG_DIR");

  const std::string dir = find_bundle(root, "sigsegv");
  ASSERT_FALSE(dir.empty()) << "no sigsegv bundle under " << root;
  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");
  const auto flight = ro::json_parse(read_file(dir + "/flight.json"));
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->at("schema")->string, "ros-flight-v1");
  EXPECT_GT(flight->at("events")->array.size(), 0u);
  fs::remove_all(root);
}

// ROS_OBS_PROBE_SAMPLE is read once per process, so the check runs in
// a re-executed child that sees only the test's environment. A period
// past UINT32_MAX clamps to UINT32_MAX: of three reads only the first
// is captured (truncating 2^32 to 0 would capture every read).
TEST(ProbeEnvDeathTest, SamplePeriodAboveUint32MaxIsClamped) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("ROS_OBS_PROBE", "always", 1);
  ::setenv("ROS_OBS_PROBE_SAMPLE", "4294967296", 1);
  EXPECT_EXIT(
      {
        int captured = 0;
        for (int i = 0; i < 3; ++i) {
          captured += ro::probe::begin_read("probeenvtest", 1, 2) ? 1 : 0;
        }
        std::_Exit(captured);
      },
      ::testing::ExitedWithCode(1), "");
  ::unsetenv("ROS_OBS_PROBE");
  ::unsetenv("ROS_OBS_PROBE_SAMPLE");
}

TEST(Watchdog, FlagsExpiredFrameOnce) {
  auto& wd = ro::Watchdog::global();
  auto& reg = ro::MetricsRegistry::global();
  const std::uint64_t stalls_before = wd.stall_count();
  const double counter_before =
      static_cast<double>(reg.counter("obs.watchdog.stalls").value());

  wd.arm("watchdogtest.frame", /*deadline_ms=*/0.001, /*frame=*/41);
  const double far_future = ro::monotonic_s() + 60.0;
  EXPECT_EQ(wd.poll_now_at(far_future), 1u);
  // Second poll of the same expired arm reports nothing new.
  EXPECT_EQ(wd.poll_now_at(far_future + 1.0), 0u);
  wd.disarm();
  EXPECT_EQ(wd.stall_count(), stalls_before + 1);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(reg.counter("obs.watchdog.stalls").value()),
      counter_before + 1.0);
}

TEST(Watchdog, DisarmedSlotNeverFlags) {
  auto& wd = ro::Watchdog::global();
  wd.arm("watchdogtest.ok", /*deadline_ms=*/0.001, /*frame=*/7);
  wd.disarm();
  EXPECT_EQ(wd.poll_now_at(ro::monotonic_s() + 60.0), 0u);
}

TEST(Watchdog, RearmResetsFlag) {
  auto& wd = ro::Watchdog::global();
  wd.arm("watchdogtest.rearm", 0.001, 1);
  const double future = ro::monotonic_s() + 60.0;
  EXPECT_EQ(wd.poll_now_at(future), 1u);
  wd.arm("watchdogtest.rearm", 0.001, 2);
  EXPECT_EQ(wd.poll_now_at(future + 120.0), 1u);
  wd.disarm();
}

TEST(Watchdog, GuardWithNonPositiveDeadlineIsNoop) {
  auto& wd = ro::Watchdog::global();
  {
    const ro::Watchdog::Guard g("watchdogtest.noop", 0.0, 3);
    EXPECT_EQ(wd.poll_now_at(ro::monotonic_s() + 60.0), 0u);
  }
  EXPECT_EQ(wd.poll_now_at(ro::monotonic_s() + 120.0), 0u);
}

TEST(Watchdog, HugeOrInfiniteDeadlineNeverFires) {
  auto& wd = ro::Watchdog::global();
  for (const double deadline_ms :
       {std::numeric_limits<double>::infinity(), 1e300}) {
    const ro::Watchdog::Guard g("watchdogtest.never", deadline_ms, 5);
    EXPECT_EQ(wd.poll_now_at(ro::monotonic_s() + 3600.0), 0u)
        << "deadline_ms=" << deadline_ms;
  }
}

TEST(Watchdog, PollerThreadStartsAndStops) {
  auto& wd = ro::Watchdog::global();
  wd.start(/*poll_ms=*/5.0);
  EXPECT_TRUE(wd.running());
  wd.start(5.0);  // idempotent
  wd.stop();
  EXPECT_FALSE(wd.running());
  wd.stop();  // idempotent
}

TEST(CrashHandlers, EnvGateInstallsOnlyWhenSet) {
  // The env gate latches on first call; without the variable set it
  // must not install. (This test runs in the parent, where nothing else
  // installed handlers unless a death test child did — children don't
  // affect the parent's state.)
  ro::maybe_install_crash_handlers_from_env();
  // Explicit install flips the flag.
  ro::install_crash_handlers();
  EXPECT_TRUE(ro::crash_handlers_installed());
  // Restore default dispositions so later death tests in this binary
  // see stock signal behavior.
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, SIG_DFL);
  }
}
