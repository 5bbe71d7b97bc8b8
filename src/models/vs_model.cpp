#include "models/vs_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "models/vs_fast_chain.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace vsstat::models {

namespace {

/// logistic(x) = 1/(1+e^x) with its x-derivative, consistent with the
/// clamped tails of models::logistic (derivative 0 where the value clamps).
inline void logisticVD(double x, double& v, double& dv) noexcept {
  if (x > 34.0) {
    v = 0.0;
    dv = 0.0;
    return;
  }
  if (x < -34.0) {
    v = 1.0;
    dv = 0.0;
    return;
  }
  const double e = std::exp(x);
  v = 1.0 / (1.0 + e);
  dv = -e * v * v;
}

/// softplus(x) = ln(1+e^x) with its x-derivative, matching models::softplus
/// bit-for-bit in the value.
inline void softplusVD(double x, double& v, double& dv) noexcept {
  if (x > 34.0) {
    v = x;
    dv = 1.0;
    return;
  }
  if (x < -34.0) {
    v = std::exp(x);
    dv = v;
    return;
  }
  const double e = std::exp(x);
  v = std::log1p(e);
  dv = e / (1.0 + e);
}

// --- model equations ---------------------------------------------------------
//
// Free functions of (params, geometry, bias): one arithmetic chain serves
// the card-owning VsModel adapter, the scalar Newton-load entry point, and
// the banked lane loop.

/// Bias-independent values derived from (params, geometry).  Computed once
/// per evaluation chain and shared across every intrinsic call of the
/// series-resistance loop and the Newton finite-difference points.
struct Derived {
  double phit = 0.0;          ///< thermal voltage
  double delta = 0.0;         ///< DIBL coefficient at Leff
  double vxo = 0.0;           ///< injection velocity at Leff
  double nphit = 0.0;         ///< n0 * phit
  double alphaPhit = 0.0;     ///< alpha * phit
  double qref = 0.0;          ///< cinv * nphit
  double vdsatStrong = 0.0;   ///< vxo * Leff / mu
};

Derived derive(const VsParams& p, const DeviceGeometry& geom) noexcept {
  Derived d;
  d.phit = units::thermalVoltage(p.temperatureK);
  d.delta = p.diblAt(geom.length);
  d.vxo = p.vxoAt(geom.length);
  d.nphit = p.n0 * d.phit;
  d.alphaPhit = p.alpha * d.phit;
  d.qref = p.cinv * d.nphit;
  d.vdsatStrong = d.vxo * geom.length / p.mu;
  return d;
}

/// Core intrinsic solution at internal (post-Rs/Rd) voltages.
struct Intrinsic {
  double idPerWidth = 0.0;  ///< A/m, positive for canonical vds >= 0
  double qSrcAreal = 0.0;   ///< source-end channel charge [C/m^2]
  double qDrnAreal = 0.0;   ///< drain-end channel charge [C/m^2]
};

/// Intrinsic model at internal (post-Rs/Rd) voltages.  The drain-end
/// charge block is only computed when `withCharges` is set: the
/// series-resistance secant needs the current alone.
Intrinsic intrinsic(const VsParams& p, const Derived& d, double vgs,
                    double vds, bool withCharges) {
  // Threshold with DIBL (paper Eq. 4).
  const double vt = p.vt0 - d.delta * vds;

  // Weak/strong inversion transition function FF and the blended Vt shift
  // (MVS formulation): in weak inversion the effective threshold lowers by
  // alpha*phit.
  const double ff = logistic((vgs - (vt - d.alphaPhit / 2.0)) / d.alphaPhit);
  const double eta = (vgs - (vt - d.alphaPhit * ff)) / d.nphit;

  // Virtual-source inversion charge (paper's Qixo).
  const double qix = d.qref * softplus(eta);

  // Saturation voltage: strong-inversion value vxo*L/mu blended toward phit
  // in weak inversion.
  const double vdsat = d.vdsatStrong * (1.0 - ff) + d.phit * ff;

  // Fsat (paper Eq. 3).
  const double ratio = vds / vdsat;
  const double fsat = ratio / std::pow(1.0 + std::pow(ratio, p.beta),
                                       1.0 / p.beta);

  Intrinsic out;
  out.idPerWidth = qix * d.vxo * fsat;
  out.qSrcAreal = qix;
  if (!withCharges) return out;

  // Drain-end charge at the smoothed internal drain voltage
  // Vdseff = Vdsat * Fsat (equals Vds in the linear region, clamps to ~Vdsat
  // in saturation), keeping the charge model continuous everywhere.
  const double vdseff = vdsat * fsat;
  const double ffd = logistic((vgs - vdseff - (vt - d.alphaPhit / 2.0)) /
                              d.alphaPhit);
  const double etaD = (vgs - vdseff - (vt - d.alphaPhit * ffd)) / d.nphit;
  out.qDrnAreal = d.qref * softplus(etaD);
  return out;
}

double solveSeriesCurrent(const VsParams& p, const DeviceGeometry& geom,
                          const Derived& d, double vgs, double vds) {
  // Per-instance resistances: cards carry R*W [Ohm m].
  const double rsOhm = p.rs / geom.width;
  const double rdOhm = p.rd / geom.width;

  // Solve h(i) = f(i) - i = 0, where f maps a trial current to the model
  // current at the post-IR internal voltages.  The IR drop is a small
  // fraction of the bias (|f'| ~ gm*Rs ~ 0.1), so a secant iteration
  // converges in two or three evaluations -- this is the evaluation hot
  // path for every Newton load in circuit simulation.  Only the current is
  // evaluated here; charges are filled in once at the solution.
  const auto evalCurrent = [&](double i) {
    const double vgsInt = vgs - i * rsOhm;
    const double vdsInt = vds - i * (rsOhm + rdOhm);
    return intrinsic(p, d, std::max(vgsInt, -1.0), std::max(vdsInt, 0.0),
                     /*withCharges=*/false)
               .idPerWidth *
           geom.width;
  };

  double i0 = 0.0;
  double h0 = evalCurrent(0.0);  // = f(0)
  double i1 = h0;                // start at f(0)
  for (int it = 0; it < 6; ++it) {
    const double h1 = evalCurrent(i1) - i1;
    if (std::fabs(h1) < 1e-13 + 1e-6 * std::fabs(i1)) break;
    const double denom = h1 - h0;
    double iNext;
    if (std::fabs(denom) > 1e-300) {
      iNext = i1 - h1 * (i1 - i0) / denom;
    } else {
      iNext = i1 + h1;  // degenerate secant: plain fixed-point step
    }
    i0 = i1;
    h0 = h1;
    i1 = iNext;
  }
  return i1;
}

/// Full intrinsic solution with the IR drop resolved.
Intrinsic solveWithSeriesR(const VsParams& p, const DeviceGeometry& geom,
                           const Derived& d, double vgs, double vds) {
  if (p.rs <= 0.0 && p.rd <= 0.0)
    return intrinsic(p, d, vgs, vds, /*withCharges=*/true);

  const double i1 = solveSeriesCurrent(p, geom, d, vgs, vds);
  const double rsOhm = p.rs / geom.width;
  const double rdOhm = p.rd / geom.width;
  const double vgsInt = vgs - i1 * rsOhm;
  const double vdsInt = vds - i1 * (rsOhm + rdOhm);
  Intrinsic result = intrinsic(p, d, std::max(vgsInt, -1.0),
                               std::max(vdsInt, 0.0), /*withCharges=*/true);
  result.idPerWidth = i1 / geom.width;
  return result;
}

/// Canonicalization + Ward-Dutton partition of evaluate().
MosfetEvaluation evaluateImpl(const VsParams& p, const DeviceGeometry& geom,
                              const Derived& d, double vgs, double vds) {
  const bool reversed = vds < 0.0;
  const double cvgs = reversed ? vgs - vds : vgs;
  const double cvds = reversed ? -vds : vds;

  const Intrinsic in = solveWithSeriesR(p, geom, d, cvgs, cvds);

  const double w = geom.width;
  const double l = geom.length;

  // Ward-Dutton partition of a linear charge profile between the source-end
  // and drain-end densities.  Channel charge is electrons (negative) mirrored
  // by positive gate charge.
  const double qChanSrc = w * l * (2.0 * in.qSrcAreal + in.qDrnAreal) / 6.0;
  const double qChanDrn = w * l * (in.qSrcAreal + 2.0 * in.qDrnAreal) / 6.0;

  // Overlap/fringe parasitics (linear, per gate edge).
  const double cov = p.cof * w;
  const double vgd = cvgs - cvds;
  const double qOvS = cov * cvgs;
  const double qOvD = cov * vgd;

  MosfetEvaluation eval;
  eval.id = in.idPerWidth * w;
  eval.qg = qChanSrc + qChanDrn + qOvS + qOvD;
  eval.qs = -qChanSrc - qOvS;
  eval.qd = -qChanDrn - qOvD;

  if (reversed) {
    eval.id = -eval.id;
    std::swap(eval.qs, eval.qd);
  }
  return eval;
}

// --- Newton-load chain (scalar entry point + banked lane loop) ---------------

/// Everything the analytic Newton-load chain reads, hoisted out of the
/// bias-dependent arithmetic: parameter-card scalars, the per-geometry
/// Derived block, pre-divided series resistances, and the charge
/// prefactors.  Built per call on the scalar path; cached per lane (and
/// refreshed per rebind) by the device bank -- every field is the same
/// double the scalar path computes, so caching does not change bits.
struct LoadCard {
  double vt0 = 0.0;
  double beta = 0.0;
  Derived d;
  double rsOhm = 0.0;
  double rdOhm = 0.0;
  bool hasSeriesR = false;
  double cov = 0.0;    ///< cof * W
  double width = 0.0;
  double wl6 = 0.0;    ///< W * L / 6
};

LoadCard makeLoadCard(const VsParams& p, const DeviceGeometry& geom) noexcept {
  LoadCard c;
  c.vt0 = p.vt0;
  c.beta = p.beta;
  c.d = derive(p, geom);
  c.rsOhm = p.rs > 0.0 ? p.rs / geom.width : 0.0;
  c.rdOhm = p.rd > 0.0 ? p.rd / geom.width : 0.0;
  c.hasSeriesR = c.rsOhm > 0.0 || c.rdOhm > 0.0;
  c.cov = p.cof * geom.width;
  c.width = geom.width;
  c.wl6 = geom.width * geom.length / 6.0;
  return c;
}

/// Intrinsic current + source-end charge with the full analytic derivative
/// chain (w.r.t. the internal canonical voltages), plus every intermediate
/// the drain-end charge block consumes.  Splitting the chain here lets the
/// series-resistance loop's final iteration be reused for the charge pass
/// instead of recomputed -- the saved intermediates are bitwise the values
/// a recomputation at the same bias would produce.
struct CurrentState {
  double vt = 0.0;
  double vdsat = 0.0, dvdsatg = 0.0, dvdsatd = 0.0;
  double fsat = 0.0, dfsatdr = 0.0;
  double drg = 0.0, drd = 0.0;
  double idW = 0.0;  ///< drain current [A] (width-scaled)
  double gm = 0.0;   ///< d(idW)/dvgs [S]
  double gd = 0.0;   ///< d(idW)/dvds [S]
  double qS = 0.0;   ///< source-end areal charge [C/m^2]
  double dqSvg = 0.0, dqSvd = 0.0;
};

CurrentState currentPart(const LoadCard& c, double vgs, double vds) {
  const Derived& d = c.d;

  // Same expressions as intrinsic(), with every chain-rule factor closed in
  // plain arithmetic: the logistic/softplus derivatives reuse the already
  // computed exponentials, and dFsat/dr = 1/((1+r^beta) * (1+r^beta)^(1/beta))
  // reuses the powers, so derivatives cost no extra transcendentals.
  CurrentState s;
  s.vt = c.vt0 - d.delta * vds;

  double ff, dffdu;
  logisticVD((vgs - (s.vt - d.alphaPhit / 2.0)) / d.alphaPhit, ff, dffdu);
  const double dffg = dffdu / d.alphaPhit;            // dff/dvgs
  const double dffd = dffdu * d.delta / d.alphaPhit;  // dff/dvds

  double sp, dsp;
  softplusVD((vgs - (s.vt - d.alphaPhit * ff)) / d.nphit, sp, dsp);
  const double qix = d.qref * sp;
  const double detag = (1.0 + d.alphaPhit * dffg) / d.nphit;
  const double detad = (d.delta + d.alphaPhit * dffd) / d.nphit;
  const double dqixg = d.qref * dsp * detag;
  const double dqixd = d.qref * dsp * detad;

  s.vdsat = d.vdsatStrong * (1.0 - ff) + d.phit * ff;
  s.dvdsatg = (d.phit - d.vdsatStrong) * dffg;
  s.dvdsatd = (d.phit - d.vdsatStrong) * dffd;

  const double ratio = vds / s.vdsat;
  s.drg = -(ratio / s.vdsat) * s.dvdsatg;
  s.drd = 1.0 / s.vdsat - (ratio / s.vdsat) * s.dvdsatd;

  const double t = std::pow(ratio, c.beta);
  const double sPow = std::pow(1.0 + t, 1.0 / c.beta);
  s.fsat = ratio / sPow;
  s.dfsatdr = 1.0 / ((1.0 + t) * sPow);

  s.idW = qix * d.vxo * s.fsat * c.width;
  s.gm = d.vxo * (dqixg * s.fsat + qix * s.dfsatdr * s.drg) * c.width;
  s.gd = d.vxo * (dqixd * s.fsat + qix * s.dfsatdr * s.drd) * c.width;
  s.qS = qix;
  s.dqSvg = dqixg;
  s.dqSvd = dqixd;
  return s;
}

struct ChargeState {
  double qD = 0.0;  ///< drain-end areal charge [C/m^2]
  double dqDvg = 0.0, dqDvd = 0.0;
};

ChargeState chargePart(const LoadCard& c, double vgs, const CurrentState& s) {
  const Derived& d = c.d;

  const double vdseff = s.vdsat * s.fsat;
  const double dvdseffg = s.dvdsatg * s.fsat + s.vdsat * s.dfsatdr * s.drg;
  const double dvdseffd = s.dvdsatd * s.fsat + s.vdsat * s.dfsatdr * s.drd;

  double ffd2, dffd2du;
  logisticVD((vgs - vdseff - (s.vt - d.alphaPhit / 2.0)) / d.alphaPhit, ffd2,
             dffd2du);
  const double dudg = (1.0 - dvdseffg) / d.alphaPhit;
  const double dudd = (d.delta - dvdseffd) / d.alphaPhit;

  double spd, dspd;
  softplusVD((vgs - vdseff - (s.vt - d.alphaPhit * ffd2)) / d.nphit, spd,
             dspd);
  ChargeState out;
  out.qD = d.qref * spd;
  const double detaDg =
      (1.0 - dvdseffg + d.alphaPhit * dffd2du * dudg) / d.nphit;
  const double detaDd =
      (d.delta - dvdseffd + d.alphaPhit * dffd2du * dudd) / d.nphit;
  out.dqDvg = d.qref * dspd * detaDg;
  out.dqDvd = d.qref * dspd * detaDd;
  return out;
}

/// The accepted internal solution finishLoad consumes: canonical frame,
/// terminal current, and the clamp flags of the internal bias.
struct SolveFrame {
  bool reversed = false;
  double cvgs = 0.0, cvds = 0.0;
  double i = 0.0;  ///< accepted terminal current [A]
  bool clampG = false, clampD = false;
};

/// External small-signal map + Ward-Dutton partition + polarity restore:
/// the shared tail of the scalar chain (evaluateLoadCard) and the banked
/// fast pipeline (VsLoadBank).  Pure arithmetic on the already-solved
/// states, so sharing it costs the fast path nothing and keeps the two
/// paths structurally identical after the transcendental stage.
MosfetLoadEvaluation finishLoad(const LoadCard& c, const SolveFrame& f,
                                const CurrentState& cur,
                                const ChargeState& chg) {
  const double rsOhm = c.rsOhm;
  const double rdOhm = c.rdOhm;
  const bool hasSeriesR = c.hasSeriesR;
  const bool reversed = f.reversed;
  const bool clampG = f.clampG;
  const bool clampD = f.clampD;
  const double cvgs = f.cvgs;
  const double cvds = f.cvds;
  const double i = f.i;

  // External small-signal map via the implicit function theorem.
  const double gmEff = clampG ? 0.0 : cur.gm;
  const double gdEff = clampD ? 0.0 : cur.gd;
  double digs, dids;      // di/dcvgs, di/dcvds
  double svgG, svgD;      // dvgsInt/dcvgs, dvgsInt/dcvds
  double svdG, svdD;      // dvdsInt/dcvgs, dvdsInt/dcvds
  if (hasSeriesR) {
    const double den = 1.0 + gmEff * rsOhm + gdEff * (rsOhm + rdOhm);
    digs = gmEff / den;
    dids = gdEff / den;
    svgG = clampG ? 0.0 : 1.0 - rsOhm * digs;
    svgD = clampG ? 0.0 : -rsOhm * dids;
    svdG = clampD ? 0.0 : -(rsOhm + rdOhm) * digs;
    svdD = clampD ? 0.0 : 1.0 - (rsOhm + rdOhm) * dids;
  } else {
    digs = gmEff;
    dids = gdEff;
    svgG = 1.0;
    svgD = 0.0;
    svdG = 0.0;
    svdD = 1.0;
  }

  // Areal charge sensitivities to the external canonical voltages.
  const double dqSg = cur.dqSvg * svgG + cur.dqSvd * svdG;
  const double dqSd = cur.dqSvg * svgD + cur.dqSvd * svdD;
  const double dqDg = chg.dqDvg * svgG + chg.dqDvd * svdG;
  const double dqDd = chg.dqDvg * svgD + chg.dqDvd * svdD;

  // Ward-Dutton partition + overlap, as in evaluateImpl.
  const double wl6 = c.wl6;
  const double qChanSrc = wl6 * (2.0 * cur.qS + chg.qD);
  const double qChanDrn = wl6 * (cur.qS + 2.0 * chg.qD);
  const double dqChanSrcG = wl6 * (2.0 * dqSg + dqDg);
  const double dqChanSrcD = wl6 * (2.0 * dqSd + dqDd);
  const double dqChanDrnG = wl6 * (dqSg + 2.0 * dqDg);
  const double dqChanDrnD = wl6 * (dqSd + 2.0 * dqDd);

  const double cov = c.cov;
  const double qOvS = cov * cvgs;
  const double qOvD = cov * (cvgs - cvds);

  // Canonical-frame evaluation and derivatives.
  const double id = i;
  const double qg = qChanSrc + qChanDrn + qOvS + qOvD;
  const double qs = -qChanSrc - qOvS;
  const double qd = -qChanDrn - qOvD;
  const double dqgG = dqChanSrcG + dqChanDrnG + 2.0 * cov;
  const double dqgD = dqChanSrcD + dqChanDrnD - cov;
  const double dqsG = -dqChanSrcG - cov;
  const double dqsD = -dqChanSrcD;
  const double dqdG = -dqChanDrnG - cov;
  const double dqdD = -dqChanDrnD + cov;

  MosfetLoadEvaluation out;
  if (!reversed) {
    out.at.id = id;
    out.at.qg = qg;
    out.at.qs = qs;
    out.at.qd = qd;
    out.didVgs = digs;
    out.didVds = dids;
    out.dqgVgs = dqgG;
    out.dqgVds = dqgD;
    out.dqsVgs = dqsG;
    out.dqsVds = dqsD;
    out.dqdVgs = dqdG;
    out.dqdVds = dqdD;
  } else {
    // cvgs = vgs - vds, cvds = -vds: for any F(cvgs, cvds),
    // dF/dvgs = Fg and dF/dvds = -Fg - Fd.  The terminal current flips
    // sign and the source/drain charges swap.
    out.at.id = -id;
    out.at.qg = qg;
    out.at.qs = qd;  // swapped
    out.at.qd = qs;
    out.didVgs = -digs;
    out.didVds = digs + dids;
    out.dqgVgs = dqgG;
    out.dqgVds = -dqgG - dqgD;
    out.dqsVgs = dqdG;
    out.dqsVds = -dqdG - dqdD;
    out.dqdVgs = dqsG;
    out.dqdVds = -dqsG - dqsD;
  }
  return out;
}

MosfetLoadEvaluation evaluateLoadCard(const LoadCard& c, double vgs,
                                      double vds) {
  SolveFrame f;
  f.reversed = vds < 0.0;
  f.cvgs = f.reversed ? vgs - vds : vgs;
  f.cvds = f.reversed ? -vds : vds;

  const double rsOhm = c.rsOhm;
  const double rdOhm = c.rdOhm;

  // Resolve the series-resistance fixed point i = f(cvgs - i*Rs,
  // cvds - i*(Rs+Rd)) with a derivative-aware Newton: h'(i) =
  // -(gm*Rs + gd*(Rs+Rd)) - 1 is available analytically, so the iteration
  // is quadratic and typically lands in two or three evaluations.
  double i = 0.0;
  double vgsInt = f.cvgs;
  double vdsInt = f.cvds;
  CurrentState cur;
  bool curValid = false;
  if (c.hasSeriesR) {
    bool converged = false;
    for (int it = 0; it < 8; ++it) {
      vgsInt = f.cvgs - i * rsOhm;
      vdsInt = f.cvds - i * (rsOhm + rdOhm);
      f.clampG = vgsInt < -1.0;
      f.clampD = vdsInt < 0.0;
      if (f.clampG) vgsInt = -1.0;
      if (f.clampD) vdsInt = 0.0;
      cur = currentPart(c, vgsInt, vdsInt);
      const double h = cur.idW - i;
      if (std::fabs(h) < 1e-13 + 1e-6 * std::fabs(i)) {
        converged = true;
        break;
      }
      const double gmIt = f.clampG ? 0.0 : cur.gm;
      const double gdIt = f.clampD ? 0.0 : cur.gd;
      const double hp = -(gmIt * rsOhm + gdIt * (rsOhm + rdOhm)) - 1.0;
      i -= h / hp;
    }
    // Internal bias of the accepted current (refreshed in case the loop
    // exhausted its budget with a pending update).
    vgsInt = f.cvgs - i * rsOhm;
    vdsInt = f.cvds - i * (rsOhm + rdOhm);
    f.clampG = vgsInt < -1.0;
    f.clampD = vdsInt < 0.0;
    if (f.clampG) vgsInt = -1.0;
    if (f.clampD) vdsInt = 0.0;
    // On convergence the loop broke before updating i, so the refreshed
    // biases equal the ones the last currentPart ran at and its state is
    // reusable as-is; only an exhausted budget forces a recomputation.
    curValid = converged;
  }
  if (!curValid) cur = currentPart(c, vgsInt, vdsInt);

  // Charges (and their derivatives) at the internal solution.
  const ChargeState chg = chargePart(c, vgsInt, cur);
  f.i = c.hasSeriesR ? i : cur.idW;
  return finishLoad(c, f, cur, chg);
}

// --- fast-numerics banked pipeline -------------------------------------------
//
// NumericsMode::fast restructures the lane loop into a struct-of-arrays
// pipeline around the fused vector kernels of models/vs_fast_chain.hpp:
// card parameters live as pre-inverted SoA arrays (refreshed per rebind),
// each series-resistance Newton iteration evaluates the ENTIRE currentPart
// of every lane with one fused kernel call (4 lanes per vector block), and
// the charge block runs once on the accepted solution.  Everything outside
// the two kernel calls -- canonicalization, the per-lane Newton update,
// finishLoad -- is the scalar chain's own code.
//
// Numerics: the kernels' polynomial exp/log and the pre-inverted divisions
// put results within ~1e-9 relative of the reference chain (the bound
// tests/models/test_fast_numerics.cpp asserts), so the fast path is
// tolerance-checked, never bit-checked.  The reference tails (logistic
// hard 0/1 beyond +-34, softplus linear tail) are not special-cased: the
// kernels cover the full argument range smoothly and agree with the
// clamped tails to ~1e-15 absolute.  Results are deterministic for a given
// lane population -- kernel arithmetic depends only on lane values and
// block position, both fixed per bank -- so fast campaigns stay
// bit-identical across runs and thread counts on one host (the AVX2
// dispatch may round differently across CPU generations).

/// Per-bank SoA state for the fast pipeline: padded card parameters +
/// kernel in/out arrays.  Owned mutable by the bank (a bank belongs to one
/// session, which is single-threaded by contract -- parallel campaigns use
/// one session per worker).
struct FastState {
  std::size_t lanes = 0;
  std::size_t padded = 0;  ///< lanes rounded up to a vector multiple

  // All 31 SoA arrays live in one arena (one allocation per session, not
  // 31): 12 card-parameter arrays refreshed per rebind (divisions
  // pre-inverted), 2 bias inputs, 14 currentPart outputs, 3 chargePart
  // outputs.  The named pointers below index into it.
  std::vector<double> arena;
  double *vt0 = nullptr, *delta = nullptr, *alphaPhit = nullptr,
         *invAlphaPhit = nullptr, *invNphit = nullptr, *qref = nullptr,
         *vxo = nullptr, *vdsatStrong = nullptr, *phit = nullptr,
         *beta = nullptr, *invBeta = nullptr, *width = nullptr;
  double *vgsInt = nullptr, *vdsInt = nullptr;
  double *vt = nullptr, *vdsat = nullptr, *dvdsatg = nullptr,
         *dvdsatd = nullptr, *fsat = nullptr, *dfsatdr = nullptr,
         *drg = nullptr, *drd = nullptr, *idW = nullptr, *gm = nullptr,
         *gd = nullptr, *qS = nullptr, *dqSvg = nullptr, *dqSvd = nullptr;
  double *qD = nullptr, *dqDvg = nullptr, *dqDvd = nullptr;
  // Canonical frame + series-resistance iterate, per lane.
  std::vector<SolveFrame> frame;
  std::vector<std::uint8_t> settled;

  void resizeLanes(std::size_t n) {
    lanes = n;
    padded = (n + 3) & ~std::size_t{3};
    arena.assign(31 * padded, 0.0);
    double* p = arena.data();
    for (double** slot :
         {&vt0, &delta, &alphaPhit, &invAlphaPhit, &invNphit, &qref, &vxo,
          &vdsatStrong, &phit, &beta, &invBeta, &width, &vgsInt, &vdsInt,
          &vt, &vdsat, &dvdsatg, &dvdsatd, &fsat, &dfsatdr, &drg, &drd,
          &idW, &gm, &gd, &qS, &dqSvg, &dqSvd, &qD, &dqDvg, &dqDvd}) {
      *slot = p;
      p += padded;
    }
    frame.resize(n);
    settled.resize(n);
    // Benign pad lanes: every kernel operation on them must stay finite
    // (unity scales dodge the reciprocals; zero charge/velocity/width
    // makes their outputs inert).  Their results are never read.
    for (std::size_t i = n; i < padded; ++i) {
      alphaPhit[i] = 1.0;
      invAlphaPhit[i] = 1.0;
      invNphit[i] = 1.0;
      vdsatStrong[i] = 1.0;
      phit[i] = 1.0;
      beta[i] = 1.0;
      invBeta[i] = 1.0;
    }
  }

  void setCard(std::size_t i, const LoadCard& c) {
    vt0[i] = c.vt0;
    delta[i] = c.d.delta;
    alphaPhit[i] = c.d.alphaPhit;
    invAlphaPhit[i] = 1.0 / c.d.alphaPhit;
    invNphit[i] = 1.0 / c.d.nphit;
    qref[i] = c.d.qref;
    vxo[i] = c.d.vxo;
    vdsatStrong[i] = c.d.vdsatStrong;
    phit[i] = c.d.phit;
    beta[i] = c.beta;
    invBeta[i] = 1.0 / c.beta;
    width[i] = c.width;
  }

  [[nodiscard]] fastchain::CurrentIo currentIo() noexcept {
    fastchain::CurrentIo io;
    io.n = padded;
    io.vt0 = vt0;
    io.delta = delta;
    io.alphaPhit = alphaPhit;
    io.invAlphaPhit = invAlphaPhit;
    io.invNphit = invNphit;
    io.qref = qref;
    io.vxo = vxo;
    io.vdsatStrong = vdsatStrong;
    io.phit = phit;
    io.beta = beta;
    io.invBeta = invBeta;
    io.width = width;
    io.vgs = vgsInt;
    io.vds = vdsInt;
    io.vt = vt;
    io.vdsat = vdsat;
    io.dvdsatg = dvdsatg;
    io.dvdsatd = dvdsatd;
    io.fsat = fsat;
    io.dfsatdr = dfsatdr;
    io.drg = drg;
    io.drd = drd;
    io.idW = idW;
    io.gm = gm;
    io.gd = gd;
    io.qS = qS;
    io.dqSvg = dqSvg;
    io.dqSvd = dqSvd;
    return io;
  }

  [[nodiscard]] fastchain::ChargeIo chargeIo() noexcept {
    fastchain::ChargeIo io;
    io.n = padded;
    io.delta = delta;
    io.alphaPhit = alphaPhit;
    io.invAlphaPhit = invAlphaPhit;
    io.invNphit = invNphit;
    io.qref = qref;
    io.vgs = vgsInt;
    io.vt = vt;
    io.vdsat = vdsat;
    io.dvdsatg = dvdsatg;
    io.dvdsatd = dvdsatd;
    io.fsat = fsat;
    io.dfsatdr = dfsatdr;
    io.drg = drg;
    io.drd = drd;
    io.qD = qD;
    io.dqDvg = dqDvg;
    io.dqDvd = dqDvd;
    return io;
  }
};

/// Gathers each series-resistance lane's internal bias from its iterate
/// (non-series lanes stay pinned at the canonical bias, like the scalar
/// path, which never clamps them).
void gatherInternalBiases(const std::vector<LoadCard>& cards, FastState& s,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const LoadCard& c = cards[i];
    SolveFrame& f = s.frame[i];
    if (!c.hasSeriesR) continue;
    double vg = f.cvgs - f.i * c.rsOhm;
    double vd = f.cvds - f.i * (c.rsOhm + c.rdOhm);
    f.clampG = vg < -1.0;
    f.clampD = vd < 0.0;
    if (f.clampG) vg = -1.0;
    if (f.clampD) vd = 0.0;
    s.vgsInt[i] = vg;
    s.vdsInt[i] = vd;
  }
}

void evaluateLoadBatchFast(const std::vector<LoadCard>& cards, FastState& s,
                           std::span<const double> vgs,
                           std::span<const double> vds,
                           std::span<MosfetLoadEvaluation> out) {
  const std::size_t n = cards.size();
  const fastchain::CurrentIo curIo = s.currentIo();

  bool anySeriesR = false;
  for (std::size_t i = 0; i < n; ++i) {
    SolveFrame& f = s.frame[i];
    f.reversed = vds[i] < 0.0;
    f.cvgs = f.reversed ? vgs[i] - vds[i] : vgs[i];
    f.cvds = f.reversed ? -vds[i] : vds[i];
    f.i = 0.0;
    f.clampG = false;
    f.clampD = false;
    s.vgsInt[i] = f.cvgs;
    s.vdsInt[i] = f.cvds;
    s.settled[i] = cards[i].hasSeriesR ? 0 : 1;
    anySeriesR = anySeriesR || cards[i].hasSeriesR;
  }

  if (anySeriesR) {
    // Lockstep derivative-aware Newton on i = f(internal biases), same
    // 8-evaluation budget and convergence test as the scalar loop.  A lane
    // that converges keeps its iterate; re-evaluating it at the unchanged
    // bias while other lanes finish reproduces the same state, so no
    // per-lane masking of the batch is needed.
    gatherInternalBiases(cards, s, n);  // i = 0: clamp like scalar it 0
    bool pending = false;
    for (int it = 0; it < 8; ++it) {
      fastchain::currentBatch(curIo);
      pending = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (s.settled[i] != 0) continue;
        const LoadCard& c = cards[i];
        SolveFrame& f = s.frame[i];
        const double h = s.idW[i] - f.i;
        if (std::fabs(h) < 1e-13 + 1e-6 * std::fabs(f.i)) {
          s.settled[i] = 1;
          continue;
        }
        const double gmIt = f.clampG ? 0.0 : s.gm[i];
        const double gdIt = f.clampD ? 0.0 : s.gd[i];
        const double hp =
            -(gmIt * c.rsOhm + gdIt * (c.rsOhm + c.rdOhm)) - 1.0;
        f.i -= h / hp;
        pending = true;
      }
      if (!pending) break;
      gatherInternalBiases(cards, s, n);
    }
    if (pending) {
      // Budget exhausted with updates still in flight: accept the final
      // iterates and re-evaluate once at their biases (the scalar path's
      // post-loop refresh; gatherInternalBiases already ran on them).
      fastchain::currentBatch(curIo);
    }
  } else {
    fastchain::currentBatch(curIo);
  }

  for (std::size_t i = 0; i < n; ++i)
    if (!cards[i].hasSeriesR) s.frame[i].i = s.idW[i];

  fastchain::chargeBatch(s.chargeIo());
  for (std::size_t i = 0; i < n; ++i) {
    CurrentState cur;
    cur.vt = s.vt[i];
    cur.vdsat = s.vdsat[i];
    cur.dvdsatg = s.dvdsatg[i];
    cur.dvdsatd = s.dvdsatd[i];
    cur.fsat = s.fsat[i];
    cur.dfsatdr = s.dfsatdr[i];
    cur.drg = s.drg[i];
    cur.drd = s.drd[i];
    cur.idW = s.idW[i];
    cur.gm = s.gm[i];
    cur.gd = s.gd[i];
    cur.qS = s.qS[i];
    cur.dqSvg = s.dqSvg[i];
    cur.dqSvd = s.dqSvd[i];
    ChargeState chg;
    chg.qD = s.qD[i];
    chg.dqDvg = s.dqDvg[i];
    chg.dqDvd = s.dqDvd[i];
    out[i] = finishLoad(cards[i], s.frame[i], cur, chg);
  }
}

/// Struct-of-arrays lane block of the VS device bank: one cached LoadCard
/// per lane, refreshed on rebind, evaluated by a flat loop through the
/// shared analytic chain.  One bank evaluation performs zero virtual calls
/// and zero derive() work.  NumericsMode::reference runs the scalar chain
/// per lane (bit-identical to evaluateLoad); NumericsMode::fast runs the
/// batched SIMD pipeline above.
class VsLoadBank final : public MosfetLoadBank {
 public:
  VsLoadBank(std::vector<BankLane> laneRefs, NumericsMode mode)
      : MosfetLoadBank(std::move(laneRefs)), mode_(mode),
        cards_(laneCount()) {
    if (mode_ == NumericsMode::fast) fastState_.resizeLanes(laneCount());
    for (std::size_t i = 0; i < laneCount(); ++i) refresh(i);
  }

  [[nodiscard]] bool rebindLane(std::size_t laneIndex, const MosfetModel& card,
                                const DeviceGeometry& geometry) override {
    if (dynamic_cast<const VsModel*>(&card) == nullptr) return false;
    (void)MosfetLoadBank::rebindLane(laneIndex, card, geometry);
    refresh(laneIndex);
    return true;
  }

  [[nodiscard]] bool rebindUniform(const MosfetModel& card,
                                   const DeviceGeometry& geometry) override {
    const auto* vs = dynamic_cast<const VsModel*>(&card);
    if (vs == nullptr) return false;
    // Every lane shares one (card, geometry): derive once and broadcast.
    // Bit-identical to the rebindLane loop because the derived LoadCard is
    // a pure function of (params, geometry).
    const LoadCard derived = makeLoadCard(vs->params(), geometry);
    for (std::size_t i = 0; i < laneCount(); ++i) {
      (void)MosfetLoadBank::rebindLane(i, card, geometry);
      cards_[i] = derived;
      if (mode_ == NumericsMode::fast) fastState_.setCard(i, derived);
    }
    return true;
  }

  void evaluateLoadBatch(std::span<const double> vgs,
                         std::span<const double> vds, double /*fdStep*/,
                         std::span<MosfetLoadEvaluation> out) const override {
    if (mode_ == NumericsMode::fast) {
      evaluateLoadBatchFast(cards_, fastState_, vgs, vds, out);
      return;
    }
    for (std::size_t i = 0; i < cards_.size(); ++i)
      out[i] = evaluateLoadCard(cards_[i], vgs[i], vds[i]);
  }

 private:
  void refresh(std::size_t i) {
    const BankLane& l = lane(i);
    const auto* vs = dynamic_cast<const VsModel*>(l.card);
    require(vs != nullptr, "VsLoadBank: lane card is not a VsModel");
    cards_[i] = makeLoadCard(vs->params(), *l.geometry);
    if (mode_ == NumericsMode::fast) fastState_.setCard(i, cards_[i]);
  }

  NumericsMode mode_;
  std::vector<LoadCard> cards_;
  mutable FastState fastState_;  ///< fast-mode SoA state (single-session)
};

}  // namespace

VsModel::VsModel(VsParams params) : params_(params) {
  require(params_.cinv > 0.0 && params_.vxo > 0.0 && params_.mu > 0.0,
          "VsModel: cinv, vxo, mu must be positive");
  require(params_.beta > 0.0 && params_.n0 >= 1.0,
          "VsModel: beta > 0 and n0 >= 1 required");
}

std::unique_ptr<MosfetModel> VsModel::clone() const {
  return std::make_unique<VsModel>(*this);
}

bool VsModel::assignFrom(const MosfetModel& other) {
  const auto* o = dynamic_cast<const VsModel*>(&other);
  if (o == nullptr) return false;
  params_ = o->params_;
  return true;
}

std::unique_ptr<MosfetLoadBank> VsModel::makeLoadBank(
    std::vector<BankLane> lanes, NumericsMode mode) const {
  return std::make_unique<VsLoadBank>(std::move(lanes), mode);
}

double VsModel::drainCurrent(const DeviceGeometry& geom, double vgs,
                             double vds) const {
  const Derived d = derive(params_, geom);
  if (params_.rs <= 0.0 && params_.rd <= 0.0) {
    if (vds < 0.0)
      return -intrinsic(params_, d, vgs - vds, -vds, false).idPerWidth *
             geom.width;
    return intrinsic(params_, d, vgs, vds, false).idPerWidth * geom.width;
  }
  if (vds < 0.0) {
    // Source/drain role reversal (device is symmetric).
    return -solveSeriesCurrent(params_, geom, d, vgs - vds, -vds);
  }
  return solveSeriesCurrent(params_, geom, d, vgs, vds);
}

MosfetEvaluation VsModel::evaluate(const DeviceGeometry& geom, double vgs,
                                   double vds) const {
  return evaluateImpl(params_, geom, derive(params_, geom), vgs, vds);
}

MosfetLoadEvaluation VsModel::evaluateLoad(const DeviceGeometry& geom,
                                           double vgs, double vds,
                                           double /*fdStep*/) const {
  return evaluateLoadCard(makeLoadCard(params_, geom), vgs, vds);
}

}  // namespace vsstat::models
