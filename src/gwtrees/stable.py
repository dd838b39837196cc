"""Continuous-side numerics for the spectrally positive stable law.

X is the Levy process with E[exp(-lam X_t)] = exp(t lam^theta), theta in (1,2].
Everything here reduces to the density p_1 of X_1, obtained by Fourier
inversion of exp((-iu)^theta):

    p_1(x) = (1/pi) * int_0^inf exp(u^theta cos(theta pi/2))
                                 * cos(x u + u^theta sin(theta pi/2)) du,

which is absolutely convergent since cos(theta pi/2) < 0 on (1,2].  The
integrand is smooth and exponentially damped, so composite Gauss-Legendre
panels sized to the fastest oscillation give near machine accuracy; theta = 2
short-circuits to the Gaussian closed forms (variance 2) everywhere, which
doubles as a free cross-check of the quadrature path.  The quadrature
constants (envelope cut, target error, refinement limit) are class constants
of StableLaw, so a law is its theta alone.  The panel nodes of each (law,
panel count) and the spline of the left cumulative are built once and kept by
functools.lru_cache, which is safe across threads.  The cosine matrix is
evaluated in row chunks of about 2^21 entries, so the memory of p_1 does not
grow with max |x|; its time still does, through the panel count.

Derived objects: the scaling p_t, the first-passage kernel q_s(x) = (x/s) p_s(-x),
its s-integral (reduced to a finite integral by v = x s^(-1/theta)), the
absolute-continuity weight Gamma_a, the excursion-measure tail, and the theta=2
excursion marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Tuple

import numpy as np
from scipy.special import erf
from scipy.special import gamma as _gamma

__all__ = [
    "StableLaw",
    "StableNumericsError",
    "GammaDomainError",
    "density_p1",
    "density_pt",
    "density_p1_cdf",
    "first_passage_density",
    "passage_integral",
    "gamma_a",
    "zeta_tail",
    "excursion_marginal_theta2",
    "excursion_marginal_theta2_cdf",
]

GAMMA_X_LO = 1e-3
GAMMA_X_HI = 1e3


class StableNumericsError(RuntimeError):
    """Quadrature failed to reach the requested tolerance (bound attached)."""


class GammaDomainError(ValueError):
    """Gamma_a evaluated outside its supported window [1e-3, 1e3]."""


@dataclass(frozen=True)
class StableLaw:
    """Index theta; the quadrature constants are shared by every law.

    ``trunc_envelope`` sets where the damping exp(u^theta cos(theta pi/2)) may
    be dropped; ``abs_tol`` is the target absolute error of one p_1 evaluation;
    ``max_refine`` bounds the number of panel doublings.
    """

    theta: float
    trunc_envelope: ClassVar[float] = 1e-18
    abs_tol: ClassVar[float] = 1e-10
    max_refine: ClassVar[int] = 8

    def __post_init__(self):
        if not 1.0 < self.theta <= 2.0:
            raise ValueError(f"theta must lie in (1,2], got {self.theta!r}")

    @property
    def is_gaussian(self) -> bool:
        return self.theta == 2.0

    @property
    def u_max(self) -> float:
        """Truncation point of the inversion integral from the envelope bound."""
        c = math.cos(self.theta * math.pi / 2.0)
        return (math.log(1.0 / self.trunc_envelope) / -c) ** (1.0 / self.theta)


# -- inversion quadrature -------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@lru_cache(maxsize=None)
def _panel_grid(law: StableLaw, n_panels: int) -> Tuple[np.ndarray, np.ndarray]:
    """(u nodes, weights including the damping envelope) for [0, u_max]."""
    edges = np.linspace(0.0, law.u_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    c = math.cos(law.theta * math.pi / 2.0)
    w_env = w * np.exp(c * u**law.theta)
    return u, w_env


def _p1_quadrature(law: StableLaw, xs: np.ndarray) -> np.ndarray:
    """Vectorized p_1 via the inversion integral, refined until two panelings agree."""
    th = law.theta
    s = math.sin(th * math.pi / 2.0)
    u_max = law.u_max
    # fastest phase d/du (x u + s u^theta) at the largest |x| decides panel count
    f_max = (np.max(np.abs(xs)) if xs.size else 1.0) + th * s * u_max ** (th - 1.0)
    n_panels = int(max(16, math.ceil(u_max * f_max / math.pi)))

    def evaluate(n_p: int) -> np.ndarray:
        u, w_env = _panel_grid(law, n_p)
        shift = s * u**th
        # chunk rows so one cos matrix holds at most ~2^21 entries (16 MB);
        # power-of-two chunks keep each row's summation order in a one-thread
        # BLAS, so p_1 is bit-equal to unchunked evaluation there
        rows = 4096
        while rows > 1 and rows * u.size > 1 << 21:
            rows //= 2
        out = np.empty(xs.size)
        for i in range(0, xs.size, rows):
            blk = xs[i : i + rows]
            out[i : i + rows] = np.cos(blk[:, None] * u[None, :] + shift[None, :]) @ w_env
        return out / math.pi

    prev = evaluate(n_panels)
    err = math.inf
    for _ in range(law.max_refine):
        n_panels *= 2
        cur = evaluate(n_panels)
        err = float(np.max(np.abs(cur - prev)))
        if err <= law.abs_tol:
            return np.maximum(cur, 0.0)
        prev = cur
    raise StableNumericsError(
        f"p1 quadrature did not reach {law.abs_tol:.1e}; achieved ~{err:.2e}"
    )


def density_p1(law: StableLaw, x) -> np.ndarray | float:
    """Density of X_1 at x (scalar or array); Gaussian closed form at theta = 2."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if law.is_gaussian:
        out = np.exp(-(xs**2) / 4.0) / (2.0 * math.sqrt(math.pi))
    else:
        out = _p1_quadrature(law, xs)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def density_pt(law: StableLaw, t: float, x) -> np.ndarray | float:
    """p_t(x) = t^(-1/theta) p_1(x t^(-1/theta))."""
    if t <= 0:
        raise ValueError("t must be positive")
    r = t ** (-1.0 / law.theta)
    out = density_p1(law, np.asarray(x, dtype=float) * r)
    return out * r


def p1_closed_zero(theta: float) -> float:
    """p_1(0) = Gamma(1/theta) sin(pi/theta) / (pi theta), from the inversion integral."""
    return _gamma(1.0 / theta) * math.sin(math.pi / theta) / (math.pi * theta)


def density_p1_cdf(law: StableLaw, x) -> np.ndarray | float:
    """P[X_1 <= x]; closed form at theta = 2 (the only density-level reference used)."""
    if not law.is_gaussian:
        raise StableNumericsError("cdf provided only for theta = 2 (Gaussian route)")
    xs = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + erf(xs / 2.0))
    return float(out) if np.ndim(x) == 0 else out


# -- first passage ---------------------------------------------------------------------


def first_passage_density(law: StableLaw, s: float, x) -> np.ndarray | float:
    """q_s(x) = (x/s) p_s(-x): density at s of the first time -X exceeds x > 0."""
    if s <= 0:
        raise ValueError("s must be positive")
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("q_s(x) needs x > 0")
    out = (xs / s) * density_pt(law, s, -xs)
    return float(out) if np.ndim(x) == 0 else out


# cumulative int_0^v p_1(-w) dw, for the passage integral: the left tail of a
# spectrally positive stable law decays super-exponentially, so [0, 16] is
# all of the mass for every theta in (1,2)
_LEFT_CUT = 16.0


@lru_cache(maxsize=None)
def _left_cumulative(law: StableLaw):
    """Cubic spline of v -> int_0^v p_1(-w) dw (per-interval 8-pt Gauss-Legendre)."""
    from scipy.interpolate import CubicSpline

    intervals = 4096
    edges = np.linspace(0.0, _LEFT_CUT, intervals + 1)
    nodes8, weights8 = np.polynomial.legendre.leggauss(8)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    v_nodes = (mids[:, None] + half * nodes8[None, :]).ravel()
    pv = np.asarray(density_p1(law, -v_nodes)).reshape(intervals, 8)
    per_interval = (pv * weights8[None, :]).sum(axis=1) * half
    knots = np.concatenate([[0.0], np.cumsum(per_interval)])
    return CubicSpline(edges, knots)


def passage_integral(law: StableLaw, lower: float, x: float) -> float:
    """int_lower^inf q_s(x) ds = theta * int_0^{x lower^(-1/theta)} p_1(-v) dv.

    The substitution v = x s^(-1/theta) turns the s-integral into a finite one;
    with lower = 0 it equals theta * P[X_1 < 0] = 1 (the passage time is a.s.
    finite).  theta = 2 closes to erf(x / (2 sqrt(lower))).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if lower < 0:
        raise ValueError("lower must be >= 0")
    th = law.theta
    if law.is_gaussian:
        if lower == 0.0:
            return 1.0
        return float(erf(x / (2.0 * math.sqrt(lower))))
    spline = _left_cumulative(law)
    upper_v = _LEFT_CUT if lower == 0.0 else min(x * lower ** (-1.0 / th), _LEFT_CUT)
    return float(th * spline(upper_v))


def gamma_a(law: StableLaw, a: float, x) -> np.ndarray | float:
    """Gamma_a(x) = theta q_{1-a}(x) / int_{1-a}^inf q_s(x) ds, x in [1e-3, 1e3]."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0,1)")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((xs < GAMMA_X_LO) | (xs > GAMMA_X_HI)):
        raise GammaDomainError(
            f"Gamma_a supported on [{GAMMA_X_LO}, {GAMMA_X_HI}]; got values outside"
        )
    th = law.theta
    num = th * np.asarray(first_passage_density(law, 1.0 - a, xs))
    if law.is_gaussian:
        den = erf(xs / (2.0 * math.sqrt(1.0 - a)))
    else:
        spline = _left_cumulative(law)
        den = th * spline(np.minimum(xs * (1.0 - a) ** (-1.0 / th), _LEFT_CUT))
    out = num / den
    return float(out[0]) if np.ndim(x) == 0 else out


# -- excursion measure ------------------------------------------------------------------


def zeta_tail(law: StableLaw, t: float) -> float:
    """N(zeta > t) = t^(-1/theta) / Gamma(1 - 1/theta) under the excursion measure."""
    if t <= 0:
        raise ValueError("t must be positive")
    return t ** (-1.0 / law.theta) / _gamma(1.0 - 1.0 / law.theta)


def excursion_marginal_theta2(t: float, y) -> np.ndarray | float:
    """Density at y > 0 of H_t under N(.|zeta=1) for theta = 2.

    H under the normalized excursion law is sqrt(2) times the normalized
    Brownian excursion, whose time-t marginal is
    f_t(x) = sqrt(2/pi) (t(1-t))^(-3/2) x^2 exp(-x^2 / (2 t (1-t))).
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0,1)")
    ys = np.asarray(y, dtype=float) / math.sqrt(2.0)
    sig2 = t * (1.0 - t)
    f = (
        math.sqrt(2.0 / math.pi)
        * sig2 ** (-1.5)
        * ys**2
        * np.exp(-(ys**2) / (2.0 * sig2))
    )
    out = f / math.sqrt(2.0)
    return float(out) if np.ndim(y) == 0 else out


def excursion_marginal_theta2_cdf(t: float, y) -> np.ndarray | float:
    """CDF of the theta = 2 excursion height marginal (for KS tests)."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0,1)")
    sig = math.sqrt(t * (1.0 - t))
    z = np.maximum(np.asarray(y, dtype=float), 0.0) / (math.sqrt(2.0) * sig)
    out = erf(z / math.sqrt(2.0)) - z * np.sqrt(2.0 / math.pi) * np.exp(-(z**2) / 2.0)
    return float(out) if np.ndim(y) == 0 else out


def excursion_height_mean(t: float) -> float:
    """E[H_t] under N(.|zeta=1), theta = 2: sqrt(2) * 2 sigma sqrt(2/pi)."""
    sig = math.sqrt(t * (1.0 - t))
    return math.sqrt(2.0) * 2.0 * sig * math.sqrt(2.0 / math.pi)
