// Discrete Fourier transforms.
//
// Radix-2 iterative Cooley-Tukey for power-of-two sizes, Bluestein's
// chirp-z algorithm for everything else, so callers never need to care
// about the length. Used for range FFTs (Eq. 3), AoA pseudo-spectra
// (Eq. 4) and the RCS frequency spectrum (Eq. 7).
//
// Per-size plans (bit-reversal tables, twiddles, the Bluestein chirp
// and its padded kernel FFT) are cached in thread-local storage, so
// repeated same-size transforms -- the per-frame range FFTs -- skip the
// trig setup. Caching is transparent: results are bit-identical across
// calls and across ros::exec worker threads, and the caches are bounded
// so varied sizes degrade to the uncached cost, never to unbounded
// memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ros/common/units.hpp"

namespace ros::dsp {

using ros::common::cplx;

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Forward DFT of arbitrary length. X[k] = sum_n x[n] exp(-j 2 pi k n / N).
std::vector<cplx> fft(std::span<const cplx> x);

/// Inverse DFT (includes the 1/N normalization).
std::vector<cplx> ifft(std::span<const cplx> x);

/// In-place radix-2 FFT; size must be a power of two. The butterfly
/// stages run through the active ros::simd backend; the span overload
/// lets frame loops transform arena/reused storage without copying.
void fft_pow2_inplace(std::span<cplx> x, bool inverse = false);
void fft_pow2_inplace(std::vector<cplx>& x, bool inverse = false);

/// Element-wise |X[k]|.
std::vector<double> magnitude(std::span<const cplx> x);

/// Element-wise |X[k]|^2.
std::vector<double> power(std::span<const cplx> x);

}  // namespace ros::dsp
