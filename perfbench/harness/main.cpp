// ros_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON object on stdout.
//
//   ros_perfbench --workload drive_decode|interrogate_clutter|corridor_fleet
//                 --seed N --seconds S --trace 0|1 [--smoke]
//
// perfbench/run.py builds this binary, pins the environment, and turns
// the raw figures into the metrics named in BENCHMARK.json.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "perfbench.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/json.hpp"
#include "ros/simd/simd.hpp"

namespace {

using perfbench::kLayerCount;
using perfbench::kLayers;
using perfbench::Options;
using perfbench::RunResult;

int usage(const char* why) {
  std::cerr << "ros_perfbench: " << why
            << "\nusage: ros_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke]\n";
  return 2;
}

void write_array(ros::obs::JsonWriter& w, std::string_view key,
                 const std::vector<double>& values) {
  w.key(key).begin_array();
  for (double v : values) w.value(v);
  w.end_array();
}

std::string to_json(const Options& opt, const RunResult& r) {
  ros::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(static_cast<std::uint64_t>(opt.seed));
  w.key("trace").value(opt.trace);
  w.key("smoke").value(opt.smoke);
  w.key("provenance").begin_object();
  w.key("simd_backend").value(ros::simd::backend_name());
  w.key("ros_threads").value(
      static_cast<std::uint64_t>(ros::exec::ThreadPool::global().threads()));
  w.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.end_object();

  w.key("attempted").value(static_cast<std::uint64_t>(r.failures.attempted));
  w.key("failed").value(static_cast<std::uint64_t>(r.failures.failed));
  w.key("first_failure").value(r.failures.first);
  write_array(w, "setup_s", r.setup_s);
  write_array(w, "op_ms", r.op_ms);
  w.key("ops_completed").value(static_cast<std::uint64_t>(r.ops_completed));
  w.key("wall_s").value(r.wall_s);
  w.key("cpu_s").value(r.cpu_s);
  w.key("quality").begin_array().value(r.quality_num).value(r.quality_den).end_array();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  w.key("peak_rss_kb").value(static_cast<std::int64_t>(ru.ru_maxrss));

  w.key("checks").begin_object();
  for (const auto& [name, ok] : r.checks) w.key(name).value(ok);
  w.end_object();
  w.key("figures").begin_object();
  for (const auto& [name, v] : r.figures) w.key(name).value(v);
  w.end_object();
  w.key("series").begin_object();
  for (const auto& [name, v] : r.series) write_array(w, name, v);
  w.end_object();

  if (r.traced) {
    const auto& l = r.ledger;
    w.key("ledger").begin_object();
    w.key("ops").value(static_cast<std::uint64_t>(l.ops));
    w.key("replay_mismatch").value(r.replay_mismatch);
    write_array(w, "traced_ms", l.traced_ms);
    write_array(w, "untraced_ms", l.untraced_ms);
    w.key("layers").begin_object();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      w.key(kLayers[i].name).begin_object();
      w.key("ms").value(l.layers[i].ms);
      w.key("work").value(l.layers[i].work);
      w.key("work_unit").value(kLayers[i].work_unit);
      w.end_object();
    }
    w.end_object();
    w.key("ratios").begin_object();
    w.key("bins_read").value(l.bins_read);
    w.key("bins_computed").value(l.bins_computed);
    w.key("points_clustered").value(l.points_clustered);
    w.key("points_total").value(l.points_total);
    w.key("clusters_tag").value(l.clusters_tag);
    w.key("clusters_total").value(l.clusters_total);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage("missing value");
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else {
      return usage("unknown argument");
    }
  }
  if (!(opt.seconds >= 0.0)) return usage("--seconds must be >= 0");

  RunResult result;
  try {
    if (opt.workload == "drive_decode") {
      result = perfbench::run_drive_decode(opt);
    } else if (opt.workload == "interrogate_clutter") {
      result = perfbench::run_interrogate_clutter(opt);
    } else if (opt.workload == "corridor_fleet") {
      result = perfbench::run_corridor_fleet(opt);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    // Set-up failed: no operation could run.
    std::cerr << "ros_perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << to_json(opt, result) << std::endl;
  return 0;
}
