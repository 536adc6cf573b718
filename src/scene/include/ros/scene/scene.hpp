// Scene aggregation: converts the world (tag + clutter + weather) into
// the per-frame ScatterReturn list the radar waveform synthesizer
// consumes. This is the glue between electromagnetics and the radar
// front end.
#pragma once

#include <memory>
#include <vector>

#include "ros/radar/arrays.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/fog.hpp"
#include "ros/scene/objects.hpp"
#include "ros/tag/link_budget.hpp"

namespace ros::scene {

/// Two-ray ground-bounce propagation (road-surface multipath). The
/// direct and road-reflected paths interfere with a path difference of
/// ~2 h_radar h_object / d, producing the distance-dependent fading a
/// real roadside deployment sees on top of free space.
struct GroundBounce {
  bool enabled = false;
  /// Road-surface *specular* reflection amplitude |Gamma|. At 79 GHz
  /// asphalt is rough on the wavelength scale (Rayleigh criterion), so
  /// the coherent specular component is small: ~0.1. Note that the
  /// two-ray fading tone can land inside the coding band for some
  /// radar/tag height combinations -- a real deployment consideration
  /// (see bench_ablation_decoder's reflectivity sweep).
  double reflection_coefficient = 0.12;
  double radar_height_m = 0.5;   ///< radar above the road surface
  double object_height_m = 1.0;  ///< object center above the road surface
};

class Scene {
 public:
  explicit Scene(Weather weather = Weather::clear) : weather_(weather) {}

  /// Adds an object; returns a stable observer pointer.
  SceneObject* add(std::unique_ptr<SceneObject> object);

  /// Convenience adders.
  ClutterObject* add_clutter(ClutterObject::Params params);
  TagObject* add_tag(ros::tag::RosTag tag, TagObject::Mounting mounting,
                     std::string name = "ros_tag");

  Weather weather() const { return weather_; }

  const GroundBounce& ground() const { return ground_; }
  void set_ground(GroundBounce g) { ground_ = g; }

  /// Two-way two-ray propagation amplitude factor at ground distance
  /// `distance_m` and carrier `hz` (1.0 when disabled).
  double ground_factor(double distance_m, double hz) const;

  const std::vector<std::unique_ptr<SceneObject>>& objects() const {
    return objects_;
  }

  /// Scatter returns for one radar frame. `tx_mode` selects the normal
  /// (co-polarized) or switched (cross-polarized) Tx antenna; the Rx
  /// polarization comes from `array`. Amplitudes follow the radar
  /// equation with `budget`'s EIRP and receive gain, the radar antenna
  /// taper applied two-way, and the weather loss.
  ///
  /// Const and state-free: safe to call concurrently from ros::exec
  /// workers as long as each call gets its own `rng` (the interrogator
  /// hands frame i the stream derive_stream_seed(noise_seed, i)).
  std::vector<ros::radar::ScatterReturn> frame_returns(
      const RadarPose& pose, ros::radar::TxMode tx_mode,
      const ros::radar::RadarArray& array,
      const ros::tag::RadarLinkBudget& budget, double hz,
      ros::common::Rng& rng) const;

  /// Same, writing into caller-owned storage: `scatter_scratch` holds
  /// each object's sub-scatterers transiently, `out` receives the frame
  /// returns. Both are cleared here but keep their capacity, so a frame
  /// loop that reuses them stops allocating once warm.
  void frame_returns_into(const RadarPose& pose,
                          ros::radar::TxMode tx_mode,
                          const ros::radar::RadarArray& array,
                          const ros::tag::RadarLinkBudget& budget,
                          double hz, ros::common::Rng& rng,
                          std::vector<ScatterPoint>& scatter_scratch,
                          std::vector<ros::radar::ScatterReturn>& out) const;

 private:
  Weather weather_;
  GroundBounce ground_;
  std::vector<std::unique_ptr<SceneObject>> objects_;
};

}  // namespace ros::scene
