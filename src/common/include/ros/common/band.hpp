// The automotive radar band RoS operates in (76-81 GHz, Sec. 3/4).
#pragma once

#include "ros/common/units.hpp"

namespace ros::common {

/// A contiguous frequency band [low, high] with helpers for the values the
/// paper derives from it (center frequency, bandwidth).
struct Band {
  double low_hz = 0.0;
  double high_hz = 0.0;

  constexpr double bandwidth() const { return high_hz - low_hz; }
  constexpr double center() const { return 0.5 * (low_hz + high_hz); }
  constexpr bool contains(double hz) const {
    return hz >= low_hz && hz <= high_hz;
  }
};

/// 76-81 GHz automotive radar allocation used for tag design sweeps.
inline constexpr Band kAutomotiveBand{76e9, 81e9};

/// 77-81 GHz sub-band the TI IWR1443 chirps over (4 GHz, Sec. 3.2/7.1).
inline constexpr Band kTiChirpBand{77e9, 81e9};

/// Design center frequency of the RoS tag (79 GHz, Sec. 4.2).
inline constexpr double kDesignFrequency = 79e9;

}  // namespace ros::common
