// Repository benchmark harness (perfbench).
//
// Three seeded workloads drive the library only through its public
// entry points -- pipeline::decode_drive, pipeline::Interrogator::run
// and corridor::CorridorEngine::tick -- and check every output against
// ground truth. The untraced run measures end-to-end figures; the
// traced run (--trace 1) replays sampled operations layer by layer,
// calling the same public functions in program order and timing each
// call from here, and fails unless every replay reproduces the entry
// point's output bit for bit.
//
// The harness prints raw measurements as one JSON object; perfbench/
// run.py turns them into the named metrics of BENCHMARK.json.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs: a seconds-long self-test
};

/// Input generator owned by the benchmark (splitmix64), so workload
/// inputs never depend on the library's own random engine: a change to
/// ros::common::Rng changes the noise, never the workload.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  ///< [lo, hi)
  std::size_t below(std::size_t n);      ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Keyed mix of the workload seed, one independent value per `branch`.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t branch);

using Clock = std::chrono::steady_clock;
double ms_since(Clock::time_point t0);
double process_cpu_s();

/// Per-operation failure accounting: every operation runs under its own
/// catch, so one failure never aborts the rest of the workload.
struct Failures {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first;
  void fail(const std::string& why);
};

/// Layers of the outside-in ledger, in pipeline order (paper Sec. 6).
enum Layer : std::size_t {
  kScene,
  kTone,
  kNoise,
  kRangeFft,
  kDetect,
  kTrack,
  kCloud,
  kDbscan,
  kClassifyDecode,
  kSpotlight,
  kDecode,
  kLayerCount
};

/// Layer name as reported, with the work unit counted for it.
struct LayerInfo {
  const char* name;
  const char* work_unit;
};
extern const std::array<LayerInfo, kLayerCount> kLayers;

/// Time and work booked against each layer over a traced replay.
struct Ledger {
  struct Tally {
    double ms = 0.0;
    double work = 0.0;
  };
  std::array<Tally, kLayerCount> layers{};
  std::size_t ops = 0;               ///< traced operations replayed
  std::vector<double> traced_ms;     ///< whole traced operation
  std::vector<double> untraced_ms;   ///< same inputs, entry point
  // Work-efficiency ratios (numerator, denominator).
  double bins_read = 0.0, bins_computed = 0.0;
  double points_clustered = 0.0, points_total = 0.0;
  double clusters_tag = 0.0, clusters_total = 0.0;

  /// Run `f`, booking its wall time to `layer`.
  template <class F>
  decltype(auto) time(Layer layer, F&& f) {
    struct Booker {
      Tally& t;
      Clock::time_point t0 = Clock::now();
      ~Booker() { t.ms += ms_since(t0); }
    } booker{layers[layer]};
    return f();
  }
  void work(Layer layer, double units) { layers[layer].work += units; }
};

/// What one workload run hands back to main() for serialization.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> op_ms;  ///< per-operation (per-read) latency
  std::size_t ops_completed = 0;
  double wall_s = 0.0;  ///< measured loop
  double cpu_s = 0.0;   ///< process CPU over the measured loop
  double quality_num = 0.0;
  double quality_den = 0.0;
  Failures failures;
  /// Correctness checks beyond per-op failures (determinism of repeated
  /// inputs, accuracy floor, replay guard, sum law).
  std::vector<std::pair<std::string, bool>> checks;
  /// Workload-specific figures printed by name next to the metrics.
  std::vector<std::pair<std::string, double>> figures;
  /// Raw per-step series (e.g. corridor tick times) for run.py.
  std::vector<std::pair<std::string, std::vector<double>>> series;
  bool traced = false;
  Ledger ledger;
  /// Replay-guard failure message (empty when every replay matched).
  std::string replay_mismatch;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void figure(const std::string& name, double v) { figures.emplace_back(name, v); }
};

RunResult run_drive_decode(const Options& opt);
RunResult run_interrogate_clutter(const Options& opt);
RunResult run_corridor_fleet(const Options& opt);

}  // namespace perfbench
