// The three benchmark workloads. Each builds its inputs from the
// workload seed alone, runs the public entry point under a per-operation
// catch, scores the outputs against ground truth, and (traced) replays
// sampled operations layer by layer behind the replay guard.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "replay.hpp"
#include "ros/corridor/engine.hpp"
#include "ros/corridor/world.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/objects.hpp"

namespace perfbench {

namespace rc = ros::corridor;
namespace rp = ros::pipeline;
namespace rs = ros::scene;

const std::array<LayerInfo, kLayerCount> kLayers = {{
    {"scene.frame_returns", "returns"},
    {"radar.tone", "tone_samples"},
    {"radar.noise", "complex_draws"},
    {"radar.range_fft", "rx_transforms"},
    {"radar.detect_points", "detections"},
    {"pipeline.track", "poses"},
    {"pipeline.cloud", "points"},
    {"pipeline.dbscan", "points"},
    {"pipeline.classify_decode", "clusters"},
    {"pipeline.spotlight", "samples"},
    {"tag.decode", "series_samples"},
}};

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t InputRng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t branch) {
  InputRng rng(seed * 0xD1B54A32D192ED03ULL + branch);
  rng.next();
  return rng.next();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Failures::fail(const std::string& why) {
  ++failed;
  if (first.empty()) first = why;
}

namespace {

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Set-up repetitions per run: at least kMinSetupReps, and more (up to
/// kMaxSetupReps) while they have taken under kSetupBudgetS, so a
/// millisecond set-up still gets a steady median. Every repetition
/// rebuilds the fixture from the seed and ends with one warm-up
/// operation; run.py reports the median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupBudgetS = 0.5;
/// Operations replayed layer by layer in a traced run (cycled).
constexpr std::size_t kTracedSamples = 8;

/// A uniformly drawn non-zero 4-bit payload (the default tag family).
std::vector<bool> draw_payload(InputRng& rng) {
  const std::size_t code = 1 + rng.below(15);
  std::vector<bool> bits(4);
  for (std::size_t k = 0; k < 4; ++k) bits[k] = ((code >> (3 - k)) & 1U) != 0;
  return bits;
}

rs::Scene tag_scene(const std::vector<bool>& bits) {
  return rc::tag_scene_of(rc::TagSpec{.bits = bits}, rs::Weather::clear);
}

/// The ROADMAP ledger drive: 5 m pass at 2 m/s centered on the tag,
/// 251 frames at frame_stride 10.
rs::StraightDrive fixture_drive(double lane_m) {
  return rs::StraightDrive({.lane_offset_m = lane_m,
                            .speed_mps = 2.0,
                            .start_x_m = -2.5,
                            .end_x_m = 2.5,
                            .radar_height_m = 0.0});
}

std::size_t bit_errors(const std::vector<bool>& got,
                       const std::vector<bool>& truth) {
  if (got.size() != truth.size()) return truth.size();
  std::size_t e = 0;
  for (std::size_t k = 0; k < truth.size(); ++k) e += got[k] != truth[k] ? 1 : 0;
  return e;
}

/// Empty when the read's outputs are finite; otherwise the reason.
std::string non_finite(const rp::DecodeDriveResult& r) {
  if (!std::isfinite(r.mean_rss_dbm)) return "non-finite mean_rss_dbm";
  for (double a : r.decode.slot_amplitudes) {
    if (!std::isfinite(a)) return "non-finite slot amplitude";
  }
  return {};
}

std::string non_finite(const rp::InterrogationReport& r) {
  for (const auto& c : r.candidates) {
    if (!std::isfinite(c.rss_normal_dbm) || !std::isfinite(c.rss_switched_dbm)) {
      return "non-finite candidate RSS";
    }
  }
  for (const auto& t : r.tags) {
    for (double a : t.decode.slot_amplitudes) {
      if (!std::isfinite(a)) return "non-finite slot amplitude";
    }
  }
  return {};
}

/// Repeats `make`, timing each build (which ends with a warm-up
/// operation), and keeps the last fixture.
template <class Make>
auto timed_setups(RunResult& out, Make&& make) {
  std::optional<decltype(make())> fixture;
  double total_s = 0.0;
  for (int r = 0; r < kMinSetupReps || (r < kMaxSetupReps && total_s < kSetupBudgetS);
       ++r) {
    fixture.reset();
    const auto t0 = Clock::now();
    fixture.emplace(make());
    out.setup_s.push_back(ms_since(t0) / 1000.0);
    total_s += out.setup_s.back();
  }
  return std::move(*fixture);
}

/// Closed loop, one caller: operation i runs input i % n. The first
/// pass over the n inputs is scored; every later operation on an input
/// must reproduce its first result bit for bit.
template <class Result, class Op, class Score, class Same>
void closed_loop(std::size_t n, const Options& opt, RunResult& out, Op&& op,
                 Score&& score, Same&& same) {
  std::vector<std::optional<Result>> first(n);
  bool repeats_identical = true;
  const auto start = Clock::now();
  const double cpu0 = process_cpu_s();
  for (std::size_t i = 0; i < n || ms_since(start) < opt.seconds * 1000.0;
       ++i) {
    const std::size_t j = i % n;
    ++out.failures.attempted;
    try {
      const auto t0 = Clock::now();
      Result r = op(j);
      const double ms = ms_since(t0);
      if (const std::string bad = non_finite(r); !bad.empty()) {
        throw std::runtime_error(bad);
      }
      out.op_ms.push_back(ms);
      ++out.ops_completed;
      if (i < n) {
        score(j, &r);
        first[j] = std::move(r);
      } else if (first[j] && !same(*first[j], r)) {
        repeats_identical = false;
      }
    } catch (const std::exception& e) {
      out.failures.fail("op " + std::to_string(i) + ": " + e.what());
      if (i < n) score(j, nullptr);
    }
  }
  out.wall_s = ms_since(start) / 1000.0;
  out.cpu_s = process_cpu_s() - cpu0;
  out.check("repeated_inputs_bit_identical", repeats_identical);
}

/// Traced loop: cycles kTracedSamples evenly spaced inputs, running each
/// through the entry point (untraced) and the layer-by-layer replay
/// (traced) in alternating order, until the time is up. Any replay that
/// differs from the entry point stops the run and fails it. Returns the
/// untraced calls' parallel efficiency: CPU s / (wall s x threads).
template <class Op, class Replay, class Same>
double traced_loop(std::size_t n, const Options& opt, RunResult& out, Op&& op,
                   Replay&& replay, Same&& same) {
  out.traced = true;
  Ledger& ledger = out.ledger;
  const std::size_t samples = std::min(n, kTracedSamples);
  double untraced_cpu_s = 0.0;
  double untraced_wall_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < samples || ms_since(start) < opt.seconds * 1000.0; ++i) {
    const std::size_t j = (i % samples) * n / samples;
    out.failures.attempted += 2;
    try {
      std::optional<decltype(op(j))> plain;
      std::optional<decltype(op(j))> traced;
      const auto run_plain = [&] {
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        plain.emplace(op(j));
        const double ms = ms_since(t0);
        ledger.untraced_ms.push_back(ms);
        untraced_wall_s += ms / 1000.0;
        untraced_cpu_s += process_cpu_s() - cpu0;
      };
      const auto run_traced = [&] {
        const auto t0 = Clock::now();
        traced.emplace(replay(j, ledger));
        ledger.traced_ms.push_back(ms_since(t0));
      };
      if (i % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      std::string why;
      if (!same(j, *plain, *traced, why)) {
        out.replay_mismatch = "input " + std::to_string(j) + ": " + why;
        out.failures.fail("replay mismatch: " + out.replay_mismatch);
        break;
      }
    } catch (const std::exception& e) {
      out.failures.fail("traced op " + std::to_string(i) + ": " + e.what());
    }
  }
  const double threads =
      static_cast<double>(ros::exec::ThreadPool::global().threads());
  return untraced_wall_s > 0.0 ? untraced_cpu_s / (untraced_wall_s * threads)
                               : 0.0;
}

bool same_read(const rp::DecodeDriveResult& a, const rp::DecodeDriveResult& b,
               std::string& why) {
  if (rc::same_read(a, b)) return true;
  why = "payload bits, slot amplitudes, mean RSS or sample count differ";
  return false;
}

// ---------------------------------------------------------------------------
// drive_decode
// ---------------------------------------------------------------------------

/// Lane offsets [m]: mean spotlighted RSS falls from about -54 dBm
/// (error-free) through the -58...-61 dBm decode cliff, where the
/// thermal floor starts flipping bits, so bit errors respond to noise.
constexpr double kLaneMin = 4.0;
constexpr double kLaneMax = 7.0;
constexpr std::size_t kDriveInputs = 128;

struct DriveInput {
  std::vector<bool> bits;
  std::size_t scene = 0;  ///< index into DriveFixture::scenes
  rs::StraightDrive drive{rs::StraightDrive::Params{}};
  rp::InterrogatorConfig config;
};

struct DriveFixture {
  std::vector<rs::Scene> scenes;  ///< one per distinct payload
  std::vector<DriveInput> inputs;
};

DriveFixture make_drive_fixture(std::uint64_t seed, std::size_t n) {
  InputRng rng(mix_seed(seed, 1));
  DriveFixture f;
  std::map<std::vector<bool>, std::size_t> scene_of;
  for (std::size_t j = 0; j < n; ++j) {
    DriveInput in;
    in.bits = draw_payload(rng);
    // Stratified lanes: every seed covers the whole cliff evenly.
    const double lane =
        kLaneMin + (kLaneMax - kLaneMin) *
                       (static_cast<double>(j) + rng.uniform(0.0, 1.0)) /
                       static_cast<double>(n);
    in.drive = fixture_drive(lane);
    in.config.frame_stride = 10;
    in.config.noise_seed = rng.next();
    const auto [it, fresh] = scene_of.try_emplace(in.bits, f.scenes.size());
    if (fresh) f.scenes.push_back(tag_scene(in.bits));
    in.scene = it->second;
    f.inputs.push_back(std::move(in));
  }
  return f;
}

}  // namespace

RunResult run_drive_decode(const Options& opt) {
  RunResult out;
  const std::size_t n = opt.smoke ? 2 : kDriveInputs;
  const DriveFixture f = timed_setups(out, [&] {
    DriveFixture fx = make_drive_fixture(opt.seed, n);
    const auto& in = fx.inputs.front();
    rp::decode_drive(fx.scenes[in.scene], in.drive, {0.0, 0.0}, in.config);
    return fx;
  });
  const auto op = [&](std::size_t j) {
    const auto& in = f.inputs[j];
    return rp::decode_drive(f.scenes[in.scene], in.drive, {0.0, 0.0}, in.config);
  };

  if (opt.trace) {
    out.figure("exec.parallel_efficiency",
               traced_loop(
                   n, opt, out, op,
                   [&](std::size_t j, Ledger& ledger) {
                     const auto& in = f.inputs[j];
                     return replay_decode_drive(f.scenes[in.scene], in.drive,
                                                {0.0, 0.0}, in.config, ledger);
                   },
                   [](std::size_t, const auto& a, const auto& b,
                      std::string& why) { return same_read(a, b, why); }));
    return out;
  }

  double bits_sent = 0.0, bits_wrong = 0.0, rss_sum = 0.0;
  closed_loop<rp::DecodeDriveResult>(
      n, opt, out, op,
      [&](std::size_t j, const rp::DecodeDriveResult* r) {
        const auto& truth = f.inputs[j].bits;
        bits_sent += static_cast<double>(truth.size());
        bits_wrong += static_cast<double>(
            r != nullptr ? bit_errors(r->decode.bits, truth) : truth.size());
        if (r != nullptr) rss_sum += r->mean_rss_dbm;
      },
      [](const auto& a, const auto& b) { return rc::same_read(a, b); });
  out.quality_num = bits_sent - bits_wrong;
  out.quality_den = bits_sent;
  out.figure("bits_sent", bits_sent);
  out.figure("bit_errors", bits_wrong);
  out.figure("mean_rss_dbm_avg", rss_sum / static_cast<double>(n));
  return out;
}

// ---------------------------------------------------------------------------
// interrogate_clutter
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMinClutter = 2;
constexpr std::size_t kMaxClutter = 8;
/// Each clutter count 2..8 appears equally often in every seed's inputs;
/// 84 scenes keep the binomial spread of the read-ok share near 3 %.
constexpr std::size_t kSceneInputs = 12 * (kMaxClutter - kMinClutter + 1);
/// A decoded cluster within this distance of the tag is the tag.
constexpr double kTagMatchM = 0.5;

using PresetFn = rs::ClutterObject::Params (*)(rs::Vec2);
/// The Fig. 13 roadside object library.
constexpr PresetFn kPresets[] = {
    rs::tripod_params,      rs::parking_meter_params, rs::street_lamp_params,
    rs::road_sign_params,   rs::pedestrian_params,    rs::tree_params,
};

struct SceneInput {
  std::vector<bool> bits;
  std::size_t n_clutter = 0;
  rs::StraightDrive drive = fixture_drive(3.0);
  rp::InterrogatorConfig config;
};

struct SceneFixture {
  std::vector<rs::Scene> scenes;  ///< one per input
  std::vector<SceneInput> inputs;
};

/// Roadside positions: `count` distinct cells of a 6 x 3 grid beside the
/// tag (origin), jittered. Cells keep 1.5 m clear either side of the
/// tag -- nearer objects of every Fig. 13 class can hide it from the
/// spotlight -- and 0.8 m between objects, so each forms its own cluster.
std::vector<rs::Vec2> clutter_positions(InputRng& rng, std::size_t count) {
  std::vector<rs::Vec2> cells;
  for (const double x : {-3.2, -2.4, -1.6, 1.6, 2.4, 3.2}) {
    for (const double y : {-0.4, 0.5, 1.4}) cells.push_back({x, y});
  }
  std::vector<rs::Vec2> placed;
  while (placed.size() < count) {
    const std::size_t k = rng.below(cells.size());
    placed.push_back({cells[k].x + rng.uniform(-0.1, 0.1),
                      cells[k].y + rng.uniform(-0.1, 0.1)});
    cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return placed;
}

SceneFixture make_scene_fixture(std::uint64_t seed, std::size_t n) {
  InputRng rng(mix_seed(seed, 2));
  std::vector<std::size_t> counts(n);
  std::size_t n_objects = 0;
  for (std::size_t j = 0; j < n; ++j) {
    counts[j] = kMinClutter + j % (kMaxClutter - kMinClutter + 1);
    n_objects += counts[j];
  }
  // Every class appears equally often across a seed's scenes (in seeded
  // order), so per-scene cost varies but a seed's total does not.
  std::vector<std::size_t> classes(n_objects);
  for (std::size_t k = 0; k < n_objects; ++k) classes[k] = k % std::size(kPresets);
  for (std::size_t k = n_objects; k > 1; --k) {
    std::swap(classes[k - 1], classes[rng.below(k)]);
  }
  SceneFixture f;
  std::size_t next_class = 0;
  for (std::size_t j = 0; j < n; ++j) {
    SceneInput in;
    in.bits = draw_payload(rng);
    in.n_clutter = counts[j];
    in.config.frame_stride = 10;
    in.config.noise_seed = rng.next();
    rs::Scene scene = tag_scene(in.bits);
    for (const rs::Vec2 p : clutter_positions(rng, in.n_clutter)) {
      scene.add_clutter(kPresets[classes[next_class++]](p));
    }
    f.scenes.push_back(std::move(scene));
    f.inputs.push_back(std::move(in));
  }
  return f;
}

/// A scene read is right when exactly the tag is decoded, with the sent
/// bits, and no clutter cluster is flagged as a tag.
enum SceneVerdict : std::size_t { kOk, kClutterFlagged, kTagNotReadOnce, kBitsWrong };
constexpr const char* kVerdictNames[] = {
    "scene_reads_ok", "scene_reads_clutter_flagged",
    "scene_reads_tag_not_read_once", "scene_reads_bits_wrong"};

SceneVerdict judge_scene_read(const rp::InterrogationReport& r,
                              const std::vector<bool>& truth) {
  for (const auto& c : r.candidates) {
    if (c.is_tag && c.cluster.centroid.norm() > kTagMatchM) return kClutterFlagged;
  }
  if (r.tags.size() != 1 ||
      r.tags.front().candidate.cluster.centroid.norm() > kTagMatchM) {
    return kTagNotReadOnce;
  }
  return r.tags.front().decode.bits == truth ? kOk : kBitsWrong;
}

}  // namespace

RunResult run_interrogate_clutter(const Options& opt) {
  RunResult out;
  const std::size_t n = opt.smoke ? 2 : kSceneInputs;
  const SceneFixture f = timed_setups(out, [&] {
    SceneFixture fx = make_scene_fixture(opt.seed, n);
    rp::Interrogator(fx.inputs.front().config)
        .run(fx.scenes.front(), fx.inputs.front().drive);
    return fx;
  });
  const auto op = [&](std::size_t j) {
    return rp::Interrogator(f.inputs[j].config).run(f.scenes[j], f.inputs[j].drive);
  };

  if (opt.trace) {
    out.figure("exec.parallel_efficiency",
               traced_loop(
                   n, opt, out, op,
                   [&](std::size_t j, Ledger& ledger) {
                     return replay_interrogate(f.scenes[j], f.inputs[j].drive,
                                               f.inputs[j].config, ledger);
                   },
                   [](std::size_t, const auto& a, const auto& b,
                      std::string& why) { return same_report(a, b, why); }));
    return out;
  }

  std::array<double, std::size(kVerdictNames)> verdicts{};
  double clusters = 0.0;
  closed_loop<rp::InterrogationReport>(
      n, opt, out, op,
      [&](std::size_t j, const rp::InterrogationReport* r) {
        if (r == nullptr) return;
        verdicts[judge_scene_read(*r, f.inputs[j].bits)] += 1.0;
        clusters += static_cast<double>(r->clusters.size());
      },
      [](const auto& a, const auto& b) {
        std::string why;
        return same_report(a, b, why);
      });
  out.quality_num = verdicts[kOk];
  out.quality_den = static_cast<double>(n);
  out.figure("scene_reads", static_cast<double>(n));
  for (std::size_t v = 0; v < verdicts.size(); ++v) {
    out.figure(kVerdictNames[v], verdicts[v]);
  }
  out.figure("clusters_per_scene", clusters / static_cast<double>(n));
  return out;
}

// ---------------------------------------------------------------------------
// corridor_fleet
// ---------------------------------------------------------------------------

namespace {

/// The fleet soak geometry: two tags, 150 vehicles at 40 ms headway
/// (~120 concurrent sessions at the peak), decode frames at stride 20.
rc::CorridorSpec fleet_spec(std::uint64_t seed, bool smoke) {
  rc::CorridorSpec spec;
  spec.seed = mix_seed(seed, 3);
  spec.segment_length_m = 10.0;
  spec.tags = {
      rc::TagSpec{.position_m = 3.0, .bits = {true, false, true, true}},
      rc::TagSpec{.position_m = 7.0, .bits = {false, true, true, false}},
  };
  spec.traffic.n_vehicles = smoke ? 4 : 150;
  spec.traffic.headway_s = 0.04;
  spec.traffic.min_speed_mps = 1.8;
  spec.traffic.max_speed_mps = 2.6;
  spec.config.frame_stride = 20;
  spec.tick_s = 0.05;
  return spec;
}

bool payload_ok(const rc::CorridorSpec& spec, const rc::ReadRecord& r) {
  return r.result.decode.bits == spec.tags[r.tag_index].bits;
}

}  // namespace

RunResult run_corridor_fleet(const Options& opt) {
  RunResult out;
  const rc::CorridorSpec spec = fleet_spec(opt.seed, opt.smoke);
  // Set-up: build the engine (fleet, plans, tag scenes) and run its
  // first tick as the warm-up operation.
  timed_setups(out, [&] {
    auto engine = std::make_unique<rc::CorridorEngine>(spec);
    engine->tick();
    return engine;
  });

  if (opt.trace) {
    std::vector<double> tick_ms, tick_frames, tick_active;
    rc::CorridorEngine engine(spec);
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    try {
      for (bool more = true; more;) {
        const std::size_t frames0 = engine.stats().frames_processed;
        const auto t0 = Clock::now();
        more = engine.tick();
        tick_ms.push_back(ms_since(t0));
        tick_frames.push_back(
            static_cast<double>(engine.stats().frames_processed - frames0));
        tick_active.push_back(static_cast<double>(engine.active_sessions()));
      }
    } catch (const std::exception& e) {
      out.failures.fail(std::string("tick: ") + e.what());
    }
    const double wall_s = ms_since(start) / 1000.0;
    const double threads =
        static_cast<double>(ros::exec::ThreadPool::global().threads());
    out.figure("exec.parallel_efficiency",
               (process_cpu_s() - cpu0) / (wall_s * threads));
    const auto& st = engine.stats();
    out.figure("corridor.sessions.peak",
               static_cast<double>(st.peak_active_sessions));
    out.figure("corridor.sessions.recycle_frac",
               st.sessions_spawned > 0
                   ? static_cast<double>(st.sessions_recycled) /
                         static_cast<double>(st.sessions_spawned)
                   : 0.0);
    out.series.emplace_back("corridor.tick_ms", std::move(tick_ms));
    out.series.emplace_back("corridor.tick_frames", std::move(tick_frames));
    out.series.emplace_back("corridor.tick_active", std::move(tick_active));

    // Replay sampled reads standalone, layer by layer, on one thread
    // (the replay is serial, so the untraced reference is too).
    const auto& plans = engine.plans();
    const auto& reads = engine.result().reads;
    std::vector<rs::Scene> scenes;
    for (const auto& tag : spec.tags) scenes.push_back(rc::tag_scene_of(tag, spec.weather));
    ros::exec::ThreadPool::set_global_threads(1);
    Options replay_opt = opt;
    replay_opt.seconds = std::max(0.0, opt.seconds - wall_s);
    traced_loop(
        plans.size(), replay_opt, out,
        [&](std::size_t j) {
          return rp::decode_drive(scenes[plans[j].tag_index],
                                  rs::StraightDrive(plans[j].drive), {0.0, 0.0},
                                  rc::session_config(spec, plans[j]));
        },
        [&](std::size_t j, Ledger& l) {
          return replay_decode_drive(scenes[plans[j].tag_index],
                                     rs::StraightDrive(plans[j].drive),
                                     {0.0, 0.0}, rc::session_config(spec, plans[j]),
                                     l);
        },
        // The replay must equal both the standalone entry point and the
        // corridor's own record of the read.
        [&](std::size_t j, const auto& plain, const auto& traced,
            std::string& why) {
          if (!same_read(plain, traced, why)) return false;
          if (rc::same_read(traced, reads[j].result)) return true;
          why = "replay differs from corridor read " + std::to_string(j);
          return false;
        });
    ros::exec::ThreadPool::set_global_threads(ros::exec::default_threads());
    return out;
  }

  // Batch: whole corridors back to back while another one fits in the
  // time left. The first corridor is scored; every later one must digest
  // identically.
  std::uint64_t digest0 = 0;
  bool repeats_identical = true;
  double correct = 0.0, scored = 0.0;
  std::size_t reps = 0;
  double last_rep_ms = 0.0;
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep == 0 || ms_since(start) + last_rep_ms <= opt.seconds * 1000.0; ++rep) {
    rc::CorridorEngine engine(spec);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    std::string tick_error;
    try {
      while (engine.tick()) {
      }
    } catch (const std::exception& e) {
      tick_error = e.what();
    }
    last_rep_ms = ms_since(t0);
    out.wall_s += last_rep_ms / 1000.0;
    out.cpu_s += process_cpu_s() - cpu0;
    for (const rc::ReadRecord& r : engine.result().reads) {
      ++out.failures.attempted;
      if (!r.completed) {
        out.failures.fail(tick_error.empty() ? "read never completed"
                                             : "tick: " + tick_error);
        continue;
      }
      if (const std::string bad = non_finite(r.result); !bad.empty()) {
        out.failures.fail(bad);
        continue;
      }
      out.op_ms.push_back(r.latency_ms);
      ++out.ops_completed;
      if (rep == 0) {
        correct += payload_ok(spec, r) ? 1.0 : 0.0;
        scored += 1.0;
      }
    }
    const std::uint64_t digest = rc::result_digest(engine.result());
    if (rep == 0) {
      digest0 = digest;
      out.figure("corridor.reads_per_corridor",
                 static_cast<double>(engine.result().reads.size()));
      out.figure("corridor.frames_per_corridor",
                 static_cast<double>(engine.stats().frames_processed));
      out.figure("corridor.peak_active_sessions",
                 static_cast<double>(engine.stats().peak_active_sessions));
    } else if (digest != digest0) {
      repeats_identical = false;
    }
    ++reps;
  }
  out.figure("corridor.reps", static_cast<double>(reps));
  out.check("repeated_inputs_bit_identical", repeats_identical);
  out.quality_num = correct;
  out.quality_den = scored;
  return out;
}

}  // namespace perfbench
