// Van Atta Array (VAA) retroreflector model (paper Sec. 4.1).
//
// A VAA is a lambda/2-spaced linear array whose mirror-symmetric elements
// are interconnected by transmission lines differing in length by integer
// multiples of the guided wavelength. A signal received at element k
// re-radiates from element N-1-k, which conjugates the aperture phase and
// steers the reflection back at the source -- for *any* incidence angle
// within the element pattern.
//
// This model captures the effects the paper designs around:
//   * retroreflectivity in the azimuth plane (Fig. 4a),
//   * low bistatic leakage (Fig. 4b),
//   * TL dispersion: unequal physical lengths de-phase away from the
//     design frequency, bounding the useful number of pairs (Fig. 3),
//   * TL and element losses, bounding RCS.
#pragma once

#include <cstdint>
#include <vector>

#include "ros/antenna/scattering.hpp"
#include "ros/common/units.hpp"
#include "ros/em/material.hpp"
#include "ros/em/patch.hpp"
#include "ros/em/transmission_line.hpp"

namespace ros::antenna {

using ros::common::cplx;

class VanAttaArray {
 public:
  struct Params {
    int n_pairs = 3;          ///< antenna pairs; elements = 2 * n_pairs
    double design_hz = 79e9;
    /// Element spacing; 0 = lambda/2 at design frequency.
    double spacing_m = 0.0;
    /// Base (shortest) TL length; 0 = default 2 lambda_g.
    double base_tl_m = 0.0;
    /// Adjacent-TL length step; 0 = default 2 lambda_g (Sec. 4.1).
    double tl_step_m = 0.0;
    /// Element boresight power gain (linear).
    double element_gain = 4.0;
    /// Aperture-coupling stub length; 0 = the paper's optimum.
    double coupling_stub_m = 0.0;
    /// Extra TL length added to *all* lines (beam-shaping phase weights,
    /// Sec. 4.3). Shifts the reflected phase without breaking retro.
    double tl_extension_m = 0.0;
    /// Lumped implementation loss (feed, connector, spurious radiation,
    /// surface roughness) applied to the round trip. Calibrated once so
    /// the PSVAA lands at the paper's HFSS level of ~-43 dBsm (Fig. 5a).
    double implementation_loss_db = 6.0;
    /// Fabrication tolerances: per-element random phase / amplitude
    /// errors, seeded for reproducibility. These set the realistic
    /// bistatic leakage floor of Fig. 4b (ideal arrays null perfectly).
    double phase_error_std_rad = 0.35;
    double amplitude_error_std_db = 0.5;
    /// Etching/placement tolerance on element positions [m]. This is
    /// what breaks the ideal array's perfect bistatic nulls.
    double position_error_std_m = 35e-6;
    std::uint64_t fabrication_seed = 7;
    ros::em::PatchAntenna::Params patch{};
  };

  /// `stackup` must outlive the array.
  VanAttaArray(Params p, const ros::em::StriplineStackup* stackup);

  /// Bistatic retro-mode scattering length: wave in from `az_in_rad`,
  /// observed at `az_out_rad` (broadside-referenced), at `hz`.
  cplx bistatic_scattering_length(double az_in_rad, double az_out_rad,
                                  double hz) const;

  /// Monostatic scattering length (the retroreflected return).
  cplx scattering_length(double az_rad, double hz) const;

  /// Monostatic RCS in dBsm.
  double rcs_dbsm(double az_rad, double hz) const;

  int n_pairs() const { return params_.n_pairs; }
  int n_elements() const { return 2 * params_.n_pairs; }
  double spacing() const { return spacing_m_; }

  /// Physical TL length connecting pair `i` (0 = innermost).
  double tl_length(int i) const;

  /// Horizontal footprint of the array (paper: ~3 lambda for 3 pairs).
  double width() const;

  const Params& params() const { return params_; }

 private:
  Params params_;
  const ros::em::StriplineStackup* stackup_;
  double spacing_m_;
  ros::em::PatchAntenna patch_;
  ros::em::ApertureCoupling coupling_;
  std::vector<ros::em::TransmissionLine> lines_;  ///< one per pair
  std::vector<cplx> element_errors_;    ///< fabrication gain/phase errors
  std::vector<double> element_x_;       ///< element positions incl. tolerance
  double implementation_amplitude_ = 1.0;

  // SoA views of the element->partner wiring, precomputed so the
  // bistatic sum is a pure simd pass: element k receives at x_rx_[k],
  // re-radiates from x_tx_[k] through line pair_of_k_[k], with the
  // combined fabrication error err_re_[k] + j err_im_[k].
  std::vector<int> pair_of_k_;
  std::vector<double> x_rx_;
  std::vector<double> x_tx_;
  std::vector<double> err_re_;
  std::vector<double> err_im_;
};

}  // namespace ros::antenna
