// Scalar reference backend: strict index-order loops over libm. This
// is the semantics every vector backend is tested against, so keep the
// arithmetic here boring and explicit -- one statement per documented
// formula, no re-association, no FMA-sensitive expressions. awgn_acc
// is the one exception to "over libm": its single definition lives in
// awgn.inl, included here one lane wide.
#include <cmath>

#define ROS_SIMD_LANES 1
#include "awgn.inl"
#include "backends.hpp"

namespace ros::simd::detail {

namespace {

void s_sincos(const double* a, double* s, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::sin(a[i]);
    c[i] = std::cos(a[i]);
  }
}

void s_cexp(const double* phase, double* re, double* im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = std::cos(phase[i]);
    im[i] = std::sin(phase[i]);
  }
}

void s_linear_phase(double base, double step, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = base + step * static_cast<double>(i);
  }
}

void s_scale(double a, const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i];
}

void s_axpby(double a, const double* x, double b, const double* y,
             double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ax = a * x[i];
    const double by = b * y[i];
    out[i] = ax + by;
  }
}

void s_cexp_madd(double cr, double ci, const double* phase,
                 double* acc_re, double* acc_im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double c = std::cos(phase[i]);
    const double s = std::sin(phase[i]);
    acc_re[i] += cr * c - ci * s;
    acc_im[i] += cr * s + ci * c;
  }
}

void s_cmul_acc(const double* are, const double* aim, const double* bre,
                const double* bim, double* acc_re, double* acc_im,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc_re[i] += are[i] * bre[i] - aim[i] * bim[i];
    acc_im[i] += are[i] * bim[i] + aim[i] * bre[i];
  }
}

cplx s_phase_mac(const double* are, const double* aim,
                 const double* phase, std::size_t n) {
  double sr = 0.0;
  double si = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = std::cos(phase[i]);
    const double s = std::sin(phase[i]);
    sr += are[i] * c - aim[i] * s;
    si += are[i] * s + aim[i] * c;
  }
  return {sr, si};
}

cplx s_cexp_sum(const double* phase, std::size_t n) {
  double sr = 0.0;
  double si = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sr += std::cos(phase[i]);
    si += std::sin(phase[i]);
  }
  return {sr, si};
}

void s_tone_acc(cplx* acc, double amp, double phase0, double dphase,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = phase0 + dphase * static_cast<double>(i);
    acc[i] += cplx{amp * std::cos(p), amp * std::sin(p)};
  }
}

double s_sum(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double s_dot(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

cplx s_csum(const double* re, const double* im, std::size_t n) {
  double sr = 0.0;
  double si = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sr += re[i];
    si += im[i];
  }
  return {sr, si};
}

void s_fft_butterfly(cplx* a, cplx* b, const cplx* w, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double br = b[k].real();
    const double bi = b[k].imag();
    const double wr = w[k].real();
    const double wi = w[k].imag();
    const cplx v{br * wr - bi * wi, br * wi + bi * wr};
    const cplx u = a[k];
    a[k] = u + v;
    b[k] = u - v;
  }
}

}  // namespace

const Ops& scalar_ops() {
  static const Ops table = {
      "scalar",    Backend::scalar, &s_sincos,   &s_cexp,
      &s_linear_phase, &s_scale,    &s_axpby,    &s_cexp_madd,
      &s_cmul_acc, &s_phase_mac,    &s_cexp_sum, &s_tone_acc,
      &s_sum,      &s_dot,          &s_csum,     &s_fft_butterfly,
      &awgn::awgn_acc,
  };
  return table;
}

}  // namespace ros::simd::detail
