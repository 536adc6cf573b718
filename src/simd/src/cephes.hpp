// Internal: the Cephes minimax sin/cos polynomials on [-pi/4, pi/4],
// shared by the vector sincos family (kernels_vec.inl) and the AWGN
// kernel (awgn.inl). V is double or a GCC vector of doubles; the
// evaluation order is fixed, so under -ffp-contract=off every width
// rounds the same way.
#pragma once

namespace ros::simd::detail {

// Coefficients, highest degree first.
inline constexpr double kCephesSin[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
inline constexpr double kCephesCos[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};

/// sin(r) and cos(r) for |r| <= pi/4.
template <class V>
inline void cephes_sincos(V r, V* sin_r, V* cos_r) {
  const V z = r * r;

  V ps = z * kCephesSin[0] + kCephesSin[1];
  ps = ps * z + kCephesSin[2];
  ps = ps * z + kCephesSin[3];
  ps = ps * z + kCephesSin[4];
  ps = ps * z + kCephesSin[5];
  *sin_r = r + r * z * ps;

  V pc = z * kCephesCos[0] + kCephesCos[1];
  pc = pc * z + kCephesCos[2];
  pc = pc * z + kCephesCos[3];
  pc = pc * z + kCephesCos[4];
  pc = pc * z + kCephesCos[5];
  *cos_r = (1.0 - 0.5 * z) + z * z * pc;
}

}  // namespace ros::simd::detail
