"""The hyperbolic plane H^2 in polar coordinates around its pole and its
kernels: distances and rays (through the Poincare disk), the angle between
two rays at any basepoint, and the closed forms in it (`pole_dbar`)."""

import math

import numpy as np

from .metrics import DBAR, _wrapped_gap
from .spaces import HYPERBOLIC, MODELS, HyperbolicBoundary, HyperbolicPoint, Space, _hyperbolic_draws

# pole dbar: duplication rounds of the Carlson kernel (fixed, so a value does
# not depend on its batch), and the angle below which the two-term
# small-angle expansion, off by less than 1.1e-18 relative, replaces it
_CARLSON_ROUNDS = 16
_POLE_SMALL_ANGLE = 1e-8
_TINY = np.finfo(float).tiny
# the invariant: the angle between the two rays and log sin(angle/2), which
# stays exact where the sine underflows; off the pole also the sine times
# _SINE_SCALE, which keeps its bits where the sine is subnormal
_HALF_ANGLE = np.dtype([("angle", float), ("log_sine", float)])
_MAPPED_HALF_ANGLE = np.dtype(_HALF_ANGLE.descr + [("scaled_sine", float)])
_SINE_SCALE = 2.0 ** 600


def _disk_from_polar(r: float, phi: float) -> complex:
    return math.tanh(r / 2) * complex(math.cos(phi), math.sin(phi))


def _chord_scales(origin: HyperbolicPoint, phi: np.ndarray) -> np.ndarray:
    """The chord scale w = sqrt(1 - rho^2) / |1 - conj(z0) e^{i phi}| of each
    boundary angle under g(z) = (z - z0)/(1 - conj(z0) z), z0 = rho e^{i phi0},
    rho = tanh(r/2), which moves `origin` to the pole:
    |g(xi) - g(eta)| = |xi - eta| w_xi w_eta.  Free of cancellation:
    1 - rho^2 = sech^2(r/2), 1 - rho = 2/(1 + e^r) = 2e^-r/(1 + e^-r) and
    |1 - conj(z0) e^{i phi}|^2 = (1 - rho)^2 + 4 rho sin^2((phi - phi0)/2).
    Raises ValueError where (1 - rho)^2 underflows (r above about 354)."""
    r = origin.r
    e = math.exp(-r)
    one_minus_rho_sq = (2.0 * e / (1.0 + e)) ** 2
    if not one_minus_rho_sq >= _TINY:
        raise ValueError(f"H^2 basepoint radius {r} is too large: (1 - tanh(r/2))^2 underflows")
    sigma = np.sin(_wrapped_gap(phi, origin.phi) / 2.0)
    m2 = one_minus_rho_sq + 4.0 * math.tanh(r / 2.0) * sigma * sigma
    return (1.0 / math.cosh(r / 2.0)) / np.sqrt(m2)


def _log_half_sine(dphi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log s for s = sin(dphi/2), read as log(dphi) - log 2 where s is
    subnormal or 0 (-inf at dphi = 0)."""
    with np.errstate(divide="ignore"):
        out = np.log(s)
        small = s < _TINY
        out[small] = np.log(dphi[small]) - math.log(2.0)
    return out


def pole_dbar(dphi: np.ndarray) -> np.ndarray:
    """dbar at the pole of H^2 for pairs of rays at angles `dphi` in [0, pi].

    With y = e^{-r} the integral of 2 asinh(s sinh r) e^{-r}, s = sin(dphi/2),
    becomes an elliptic integral; with q = dphi/4,
    dbar = 2 [R_F(1, csc^2 q, sec^2 q) + R_D(csc^2 q, sec^2 q, 1)/3]
         = 2 sin q [R_F(1, tan^2 q, sin^2 q) + sin^2 q R_D(1, tan^2 q, sin^2 q)/3]
    by the homogeneity of R_F (degree -1/2) and R_D (degree -3/2).  Below
    _POLE_SMALL_ANGLE the expansion (dphi/2)(log(8/dphi) + 1/2) is used
    instead, which stays finite and positive down to the smallest
    subnormal angle.  Each value depends on its own angle only."""
    dphi = np.asarray(dphi, dtype=float)
    out = np.zeros(dphi.shape)
    small = dphi < _POLE_SMALL_ANGLE
    q = dphi[~small] / 4.0
    sq = np.sin(q)
    tq = np.tan(q)
    rf, rd = _carlson_rf_rd(1.0, tq * tq, sq * sq)
    out[~small] = 2.0 * sq * (rf + sq * sq * rd / 3.0)
    tiny = small & (dphi > 0.0)
    d = dphi[tiny]
    out[tiny] = d * ((math.log(8.0) + 0.5) - np.log(d)) * 0.5
    return out


def _carlson_rf_rd(x, y, z) -> tuple:
    """Carlson's symmetric elliptic integrals R_F(x, y, z) and R_D(x, y, z)
    for positive arrays, by _CARLSON_ROUNDS rounds of the duplication
    theorem and the fifth-order series of DLMF 19.36.1 and 19.36.2
    (B. C. Carlson, Numer. Algorithms 10, 1995).  Both read one duplication
    sequence of (x, y, z)."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    a_f = (x + y + z) / 3.0
    a_d = (x + y + 3.0 * z) / 5.0
    xf, yf, xd, yd = a_f - x, a_f - y, a_d - x, a_d - y
    tail = np.zeros(x.shape)
    scale = 1.0
    for _ in range(_CARLSON_ROUNDS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
        a_f, a_d = (a_f + lam) * 0.25, (a_d + lam) * 0.25
    X, Y = xf * scale / a_f, yf * scale / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)
    X, Y = xd * scale / a_d, yd * scale / a_d
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = 3.0 * tail + scale / (a_d * np.sqrt(a_d)) * series
    return rf, rd


class HyperbolicPlane(Space):
    """H^2 with the pole, r = 0, as its default basepoint."""

    point, boundary = HyperbolicPoint, HyperbolicBoundary
    keys, of_key = _hyperbolic_draws, HyperbolicBoundary

    def default_basepoint(self) -> HyperbolicPoint:
        return HyperbolicPoint(0.0, 0.0)

    def boundary_text(self, bp: HyperbolicBoundary) -> str:
        return f"phi={bp.angle:.17g}"

    def dist(self, p: HyperbolicPoint, q: HyperbolicPoint) -> float:
        # arccosh(1 + x), stable near 0, of x = cosh d - 1 written without
        # cancellation for nearby points
        x = (2 * math.sinh((p.r - q.r) / 2) ** 2
             + 2 * math.sinh(p.r) * math.sinh(q.r) * math.sin((p.phi - q.phi) / 2) ** 2)
        return math.log1p(x + math.sqrt(x * (x + 2)))

    def walk(self, p: HyperbolicPoint, z, t, d) -> HyperbolicPoint:
        if d is None and p.r == 0.0:
            return HyperbolicPoint(float(t), z.angle)
        # the Moebius map w -> (w - z0)/(1 - conj(z0) w) takes p to 0: walk
        # toward the image of the target there, and map back
        z0 = _disk_from_polar(p.r, p.phi)
        w = (complex(math.cos(z.angle), math.sin(z.angle)) if d is None
             else _disk_from_polar(z.r, z.phi))
        u = (w - z0) / (1 - z0.conjugate() * w)
        u = math.tanh(float(t) / 2) * (u / abs(u))
        w = (u + z0) / (1 + z0.conjugate() * u)
        rho = min(abs(w), math.nextafter(1.0, 0.0))
        return HyperbolicPoint(2 * math.atanh(rho), math.atan2(w.imag, w.real) if rho > 0 else 0.0)

    def prepare(self, points: list, origin: HyperbolicPoint) -> tuple:
        """The angle in [0, pi] between the rays at `origin` and the log of
        its half-angle sine s (`_HALF_ANGLE`): at the pole the wrapped dphi;
        elsewhere the Moebius map moving `origin` to the pole scales the
        chord by w_i w_j (`_chord_scales`), so s' = s w_i w_j, carried also
        times _SINE_SCALE (`_MAPPED_HALF_ANGLE`).  Ordered by phi, which the
        map keeps cyclic; the turn, the angle the metric sees, is the
        mapped angle phi0 + 2 atan(e^r tan((phi - phi0)/2))."""
        phi = np.array([p.angle for p in points], dtype=float)
        w = None if origin.r == 0.0 else _chord_scales(origin, phi)

        def order():
            turn = phi
            if w is not None:
                half = ((phi - origin.phi + math.pi) % (2 * math.pi) - math.pi) / 2.0
                turn = (origin.phi + 2.0 * np.arctan2(math.exp(origin.r) * np.sin(half),
                                                      np.cos(half))) % (2 * math.pi)
            return np.argsort(phi, kind="stable"), turn

        def half_angles(I, J):
            dphi = _wrapped_gap(phi[I], phi[J])
            s = np.sin(dphi / 2.0)
            log_sine = _log_half_sine(dphi, s)
            if w is None:
                out = np.empty(len(I), dtype=_HALF_ANGLE)
                out["angle"], out["log_sine"] = dphi, log_sine
                return out
            k = w[I] * w[J]
            out = np.empty(len(I), dtype=_MAPPED_HALF_ANGLE)
            # s' = s k; where s is subnormal, dphi/2 keeps the bits s lost
            scaled = np.where(s >= _TINY, s * _SINE_SCALE, dphi * (_SINE_SCALE / 2.0)) * k
            out["scaled_sine"] = np.minimum(_SINE_SCALE, scaled)
            out["angle"] = 2.0 * np.arcsin(out["scaled_sine"] / _SINE_SCALE)
            out["log_sine"] = np.minimum(0.0, log_sine + np.log(k))
            return out
        return half_angles, order

    def closed_form(self, spec, inv: np.ndarray, exact: bool = False) -> np.ndarray:
        """d_A = 1/asinh(sinh(A/2)/s) with s = sin(angle/2), and
        dbar = `pole_dbar(angle)`.  Where sinh(A/2)/s overflows, asinh is
        read as log(sinh(A/2) + hypot(sinh(A/2), s)) - log s."""
        if spec.family == DBAR:
            out = pole_dbar(inv["angle"])
            if "scaled_sine" in inv.dtype.names:
                # a subnormal s' leaves the mapped angle only its absolute
                # rounding (at the pole the angle is dphi itself), so
                # s'(log(4/s') + 1/2) is read from the scaled sine there
                lost = inv["scaled_sine"] < _TINY * _SINE_SCALE
                out[lost] = (inv["scaled_sine"][lost]
                             * ((math.log(4.0) + 0.5) - inv["log_sine"][lost]) / _SINE_SCALE)
            return out
        c = math.sinh(float(spec.A) / 2.0)
        s = np.sin(inv["angle"] / 2.0)
        with np.errstate(divide="ignore", over="ignore"):
            x = c / s
            a = np.arcsinh(x)
            big = np.isinf(x)
            a[big] = np.log(c + np.hypot(c, s[big])) - inv["log_sine"][big]
            return 1.0 / a

    def gromov(self, inv: np.ndarray) -> np.ndarray:
        """-log s, s = sin(angle/2)."""
        return -inv["log_sine"]

    def separation(self, inv: np.ndarray):
        """f(t) = 2 asinh(s sinh t), s = sin(angle/2), read with log s where
        s may underflow; stable for arbitrarily large t."""
        s, log_s = np.sin(inv["angle"] / 2.0).item(0), inv["log_sine"].item(0)

        def f(t: float) -> float:
            if t < 350:
                x = math.sinh(t) * s
            else:  # sinh t = e^t / 2 in floating point
                lx = t - math.log(2.0) + log_s
                x = math.exp(lx) if lx < 40.0 else math.inf
            if x < 1e15:
                return 2 * math.asinh(x)
            # asymptotic regime: asinh x = log 2x to double precision
            return 2 * (t + log_s + math.log1p(-math.exp(-2 * t)))
        return f


MODELS[HYPERBOLIC] = HyperbolicPlane
