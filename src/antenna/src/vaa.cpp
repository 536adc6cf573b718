#include "ros/antenna/vaa.hpp"

#include <cmath>

#include <algorithm>

#include "ros/common/expect.hpp"
#include "ros/common/random.hpp"
#include "ros/common/units.hpp"
#include "ros/exec/arena.hpp"
#include "ros/simd/simd.hpp"

namespace ros::antenna {

using namespace ros::common;
using ros::em::ApertureCoupling;
using ros::em::TransmissionLine;

VanAttaArray::VanAttaArray(Params p, const ros::em::StriplineStackup* stackup)
    : params_(p),
      stackup_(stackup),
      spacing_m_(p.spacing_m > 0.0 ? p.spacing_m
                                   : wavelength(p.design_hz) / 2.0),
      patch_(p.patch),
      coupling_(p.coupling_stub_m > 0.0
                    ? p.coupling_stub_m
                    : ApertureCoupling::kOptimalStub79GHz,
                stackup) {
  ROS_EXPECT(stackup != nullptr, "stackup must not be null");
  ROS_EXPECT(p.n_pairs >= 1, "need at least one antenna pair");
  ROS_EXPECT(p.design_hz > 0.0, "design frequency must be positive");
  ROS_EXPECT(p.tl_extension_m >= 0.0, "TL extension must be non-negative");

  const double lambda_g = stackup->guided_wavelength(p.design_hz);
  const double base = p.base_tl_m > 0.0 ? p.base_tl_m : 2.0 * lambda_g;
  const double step = p.tl_step_m > 0.0 ? p.tl_step_m : 2.0 * lambda_g;
  lines_.reserve(static_cast<std::size_t>(p.n_pairs));
  for (int i = 0; i < p.n_pairs; ++i) {
    lines_.emplace_back(base + step * static_cast<double>(i) +
                            p.tl_extension_m,
                        stackup);
  }

  ROS_EXPECT(p.implementation_loss_db >= 0.0,
             "implementation loss must be non-negative");
  ROS_EXPECT(p.phase_error_std_rad >= 0.0 && p.amplitude_error_std_db >= 0.0,
             "tolerance stddevs must be non-negative");
  implementation_amplitude_ =
      std::pow(10.0, -p.implementation_loss_db / 20.0);
  Rng rng(p.fabrication_seed);
  element_errors_.reserve(static_cast<std::size_t>(n_elements()));
  element_x_.reserve(static_cast<std::size_t>(n_elements()));
  const double center = 0.5 * static_cast<double>(n_elements() - 1);
  for (int k = 0; k < n_elements(); ++k) {
    const double amp_db = rng.normal(0.0, p.amplitude_error_std_db);
    const double phase = rng.normal(0.0, p.phase_error_std_rad);
    element_errors_.push_back(
        std::polar(std::pow(10.0, amp_db / 20.0), phase));
    element_x_.push_back((static_cast<double>(k) - center) * spacing_m_ +
                         rng.normal(0.0, p.position_error_std_m));
  }

  // SoA wiring tables for the bistatic sum (see header). Element k
  // receives, its TL partner N-1-k re-radiates; pair index counts from
  // the outside in so line 0 is the innermost (shortest) pair, matching
  // the paper's 4.106 / 9.148 / 12.171 mm ordering.
  const int n = n_elements();
  pair_of_k_.reserve(static_cast<std::size_t>(n));
  x_rx_.reserve(static_cast<std::size_t>(n));
  x_tx_.reserve(static_cast<std::size_t>(n));
  err_re_.reserve(static_cast<std::size_t>(n));
  err_im_.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const int partner = n - 1 - k;
    pair_of_k_.push_back(p.n_pairs - 1 - std::min(k, partner));
    x_rx_.push_back(element_x_[static_cast<std::size_t>(k)]);
    x_tx_.push_back(element_x_[static_cast<std::size_t>(partner)]);
    const cplx err = element_errors_[static_cast<std::size_t>(k)] *
                     element_errors_[static_cast<std::size_t>(partner)];
    err_re_.push_back(err.real());
    err_im_.push_back(err.imag());
  }
}

double VanAttaArray::tl_length(int i) const {
  ROS_EXPECT(i >= 0 && i < params_.n_pairs, "pair index out of range");
  return lines_[static_cast<std::size_t>(i)].length();
}

double VanAttaArray::width() const {
  return static_cast<double>(n_elements() - 1) * spacing_m_ +
         wavelength(params_.design_hz) / 2.0;
}

cplx VanAttaArray::bistatic_scattering_length(double az_in_rad,
                                              double az_out_rad,
                                              double hz) const {
  const double lambda = wavelength(hz);
  const double beta = 2.0 * kPi / lambda;
  const double s_elem = lambda * params_.element_gain / (4.0 * kPi);
  const double g_in = patch_.field_pattern(az_in_rad);
  const double g_out = patch_.field_pattern(az_out_rad);
  if (g_in <= 0.0 || g_out <= 0.0) return {0.0, 0.0};
  const double match = std::sqrt(patch_.match_efficiency(hz));
  // The signal crosses the aperture coupling twice (in and out).
  const double coupling = coupling_.efficiency(hz);

  const auto n = static_cast<std::size_t>(n_elements());
  const double sin_in = std::sin(az_in_rad);
  const double sin_out = std::sin(az_out_rad);
  const auto& simd = ros::simd::ops();

  // Hoist the per-pair TL transfer (it depends only on hz), combine it
  // with the precomputed pair fabrication errors into per-element SoA
  // amplitudes, then run the aperture-phase accumulation as one
  // axpby + phase_mac pass over all elements.
  auto& arena = ros::exec::Arena::thread_local_arena();
  ros::exec::Arena::Scope scope(arena);
  const auto n_pairs = static_cast<std::size_t>(params_.n_pairs);
  auto tl_re = arena.alloc_span<double>(n_pairs);
  auto tl_im = arena.alloc_span<double>(n_pairs);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const cplx tl = lines_[p].transfer(hz);
    tl_re[p] = tl.real();
    tl_im[p] = tl.imag();
  }
  auto a_re = arena.alloc_span<double>(n);
  auto a_im = arena.alloc_span<double>(n);
  auto phase = arena.alloc_span<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Fabrication tolerance applies at the receiving and the
    // re-radiating element independently (folded into err_* already).
    const auto pair = static_cast<std::size_t>(pair_of_k_[k]);
    a_re[k] = tl_re[pair] * err_re_[k] - tl_im[pair] * err_im_[k];
    a_im[k] = tl_re[pair] * err_im_[k] + tl_im[pair] * err_re_[k];
  }
  simd.axpby(beta * sin_in, x_rx_.data(), beta * sin_out, x_tx_.data(),
             phase.data(), n);
  const cplx sum =
      simd.phase_mac(a_re.data(), a_im.data(), phase.data(), n);
  return s_elem * g_in * g_out * match * coupling *
         implementation_amplitude_ * sum;
}

cplx VanAttaArray::scattering_length(double az_rad, double hz) const {
  return bistatic_scattering_length(az_rad, az_rad, hz);
}

double VanAttaArray::rcs_dbsm(double az_rad, double hz) const {
  return rcs_dbsm_from_scattering_length(scattering_length(az_rad, hz));
}

}  // namespace ros::antenna
