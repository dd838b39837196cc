"""Continuous-side numerics for the spectrally positive stable law.

X is the Levy process with E[exp(-lam X_t)] = exp(t lam^theta), theta in (1,2].
Everything here reduces to the density p_1 of X_1, obtained by Fourier
inversion of exp((-iu)^theta):

    p_1(x) = (1/pi) * int_0^inf exp(u^theta cos(theta pi/2))
                                 * cos(x u + u^theta sin(theta pi/2)) du,

which is absolutely convergent since cos(theta pi/2) < 0 on (1,2].  As in
Mittnik, Doganoglu & Chenyao (1999), FFTs of the trapezoid rule in u give
p_1 (and p_1', p_1'') on a uniform x-grid, and quintic Hermite pieces
interpolate between the nodes.  Each law's grid is built once, checked to
``abs_tol`` and kept by functools.lru_cache; then p_1 costs a few array
operations per point whatever max |x| is, and no value depends on the batch
or the BLAS thread count.  theta = 2 short-circuits to the Gaussian closed
forms (variance 2) everywhere, a free cross-check of the grid route.

Derived objects: the scaling p_t, the first-passage kernel q_s(x) = (x/s) p_s(-x),
its s-integral (by v = x s^(-1/theta), the exact integral of the Hermite pieces),
the absolute-continuity weight Gamma_a, the excursion-measure tail, and the
theta=2 excursion marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

__all__ = [
    "StableLaw",
    "StableNumericsError",
    "GammaDomainError",
    "density_p1",
    "density_pt",
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
    """The p_1 grid failed to reach the requested tolerance (bound attached)."""


class GammaDomainError(ValueError):
    """Gamma_a evaluated outside its supported window [1e-3, 1e3]."""


@dataclass(frozen=True)
class StableLaw:
    """Index theta.  Shared by every law: ``trunc_envelope``, where the damping
    exp(u^theta cos(theta pi/2)) is dropped, and ``abs_tol``, p_1's target error.
    theta so close to 1 that p_1's grid would need a spacing below 2^-_FINEST
    (theta < ~1.0046 at abs_tol 1e-10) is refused here, not on first use."""

    theta: float
    trunc_envelope: ClassVar[float] = 1e-18
    abs_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not 1.0 < self.theta <= 2.0:
            raise ValueError(f"theta must lie in (1,2], got {self.theta!r}")
        k = _grid_exponent(self.theta, self.abs_tol)
        if k > _FINEST:
            lo, hi = 1.0, 2.0  # bisect the sizing rule for the smallest served theta
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _grid_exponent(mid, self.abs_tol) > _FINEST else (lo, mid)
            raise ValueError(
                f"theta={self.theta!r} at abs_tol {self.abs_tol:g} needs dx={2.0**-k:g}, finer "
                f"than the finest p1 grid 2^-{_FINEST}; theta must be >= {hi:.6g}")

    @property
    def is_gaussian(self) -> bool:
        return self.theta == 2.0


# -- p_1 on a cached grid --------------------------------------------------------------

# p_1 < 1e-28 left of -16 for every theta in (1,2] (a super-exponential left tail)
_LEFT_CUT = 16.0
_PERIOD = 128.0  # P: x-period of the trapezoid rule; the grid covers [-16, P - 16]
_TAIL_TERMS = 5
_FINEST = 13  # dx >= 2^-13: at most 2^20 Hermite pieces


# B_2j / (2j)!, j = 1..8: the Euler-Maclaurin corrections of _hurwitz_zeta
_EM_COEF = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1))


def _hurwitz_zeta(s: float, a):
    """zeta(s, a) = sum_k (a + k)^-s for s > 1, a > 0: nine terms, then Euler-Maclaurin."""
    a = np.asarray(a, dtype=float)
    b = a + 9.0
    out = sum((a + k) ** -s for k in range(9)) + b ** (1.0 - s) / (s - 1.0) + 0.5 * b**-s
    term = s * b ** (-s - 1.0)  # s (s+1) ... (s+2j-2) b^(-s-2j+1)
    for j, coef in enumerate(_EM_COEF, start=1):
        out = out + coef * term
        term = term * ((s + 2 * j - 1) * (s + 2 * j)) / (b * b)
    return out


def _tail_series(theta: float, x: np.ndarray, order: int = 0, period: float = 0.0):
    """d^order/dy^order of p_1's tail sum_k a_k y^(-1-k theta) at x, or summed at x + j period."""
    out = np.zeros(np.shape(x))
    for k in range(1, _TAIL_TERMS + 1):
        a_k = -math.sin(math.pi * (k * theta % 2)) * math.gamma(k * theta + 1) / math.factorial(k)
        s = 1.0 + k * theta + order
        c = a_k / math.pi * math.prod(1.0 - s + i for i in range(order))
        out += c * (period**-s * _hurwitz_zeta(s, 1.0 + x / period) if period else x**-s)
    return out


class _Grid:
    """Quintic Hermite pieces on [-16, P - 16] from p_1, p_1', p_1'' at the nodes."""

    def __init__(self, dx: float, f, d1, d2):
        self.dx = dx
        df, g0, g1 = f[1:] - f[:-1], dx * d1[:-1], dx * d1[1:]
        h0, h1 = dx * dx * d2[:-1], dx * dx * d2[1:]
        # t^0..t^5 coefficients, t = (x - x_j) / dx, summed elementwise, not by BLAS
        self.coef = [f[:-1], g0, 0.5 * h0, 10 * df - 6 * g0 - 4 * g1 - 1.5 * h0 + 0.5 * h1,
                     -15 * df + 8 * g0 + 7 * g1 + 1.5 * h0 - h1,
                     6 * df - 3 * (g0 + g1) - 0.5 * (h0 - h1)]
        self.cum = np.cumsum([0.0, *(dx * sum(c / (p + 1) for p, c in enumerate(self.coef)))])
        self.cum -= self.cum[round(_LEFT_CUT / dx)]  # x = 0 is a node

    def pieces(self, xs: np.ndarray, integrate: bool = False) -> np.ndarray:
        """The pieces at xs in [-16, P - 16], or their exact integral from 0 to xs."""
        y = (xs + _LEFT_CUT) / self.dx
        j = np.minimum(y.astype(np.intp), self.cum.size - 2)
        t = y - j
        acc = np.zeros(xs.shape)
        for p in range(5, -1, -1):
            acc = acc * t + self.coef[p][j] / (p + 1 if integrate else 1)
        return self.cum[j] + self.dx * t * acc if integrate else acc


def _grid_exponent(theta: float, abs_tol: float) -> int:
    """k of the node spacing dx = 2^-k: the largest dx, k >= 4, with
    dx^6 max|p_1^(6)| / (6! 4^3) <= abs_tol / 8."""
    c = -math.cos(theta * math.pi / 2.0)
    # (1/pi) int u^6 e^(-c u^th) du
    d6 = math.gamma(7.0 / theta) / (math.pi * theta * c ** (7.0 / theta))
    return max(4, math.ceil(math.log2(8.0 * d6 / (46080.0 * abs_tol)) / 6))


@lru_cache(maxsize=None)
def _grid(law: StableLaw) -> _Grid:
    """p_1, p_1', p_1'' at x = -16 + j dx by FFT, checked to abs_tol.

    By Poisson summation the trapezoid rule in u, du = 2 pi / P, is p_1 summed over
    the images x + jP: the tail series removes the right ones, the left ones vanish.
    dx = 2^-k from ``_grid_exponent``; StableLaw refuses theta that would need k > _FINEST.
    """
    th = law.theta
    c = -math.cos(th * math.pi / 2.0)
    dx = 2.0 ** -_grid_exponent(th, law.abs_tol)
    du = 2.0 * math.pi / _PERIOD
    u = du * np.arange(int((math.log(1.0 / law.trunc_envelope) / c) ** (1.0 / th) / du) + 2)
    g = np.exp(u**th * np.exp(0.5j * math.pi * th) - 1j * _LEFT_CUT * u)
    g[0] *= 0.5  # trapezoid end weight; the rule spans the whole line by symmetry

    def on_grid(order: int, step: float) -> np.ndarray:
        """p_1^(order) at -16 + j step, j = 0 .. n = P / step: (du/pi) Re sum_k w_k
        exp(2 pi i k j / n), one ifft once the w_k are folded mod n."""
        n = round(_PERIOD / step)
        w = np.concatenate([g * (1j * u) ** order, np.zeros(-u.size % n)]).reshape(-1, n).sum(0)
        raw = (du / math.pi * n) * np.fft.ifft(w).real
        xs = -_LEFT_CUT + step * np.arange(n + 1)
        return np.append(raw, raw[0]) - _tail_series(th, xs, order, _PERIOD)

    half = on_grid(0, 0.5 * dx)  # nodes and midpoints
    grid = _Grid(dx, half[::2], on_grid(1, dx), on_grid(2, dx))
    # error at exact midpoints, plus the first dropped tail term (|a_k| <= Gamma(s) / (pi k!))
    s = 1.0 + (_TAIL_TERMS + 1) * th
    mids = -_LEFT_CUT + dx * (0.5 + np.arange(half.size // 2))
    dropped = math.gamma(s) / (math.pi * math.factorial(_TAIL_TERMS + 1)) * _PERIOD**-s
    err = float(np.max(np.abs(grid.pieces(mids) - half[1::2]))) + dropped * float(
        _hurwitz_zeta(s, 1 - _LEFT_CUT / _PERIOD))
    if err > law.abs_tol:
        raise StableNumericsError(f"p1 grid at theta={th} (P={_PERIOD:g}, dx={dx:g}) reached "
                                  f"error {err:.2e} > abs_tol {law.abs_tol:.1e}")
    return grid


def _p1_quadrature(law: StableLaw, xs: np.ndarray) -> np.ndarray:
    """p_1 at xs by the grid route, also at theta = 2: 0 left of it, the tail series right."""
    out = np.zeros(xs.shape)
    inside = (xs >= -_LEFT_CUT) & (xs <= _PERIOD - _LEFT_CUT)
    out[inside] = _grid(law).pieces(xs[inside])
    right = xs > _PERIOD - _LEFT_CUT
    out[right] = _tail_series(law.theta, xs[right])
    return np.maximum(out, 0.0)


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
    return math.gamma(1.0 / theta) * math.sin(math.pi / theta) / (math.pi * theta)


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


def _erf(x) -> np.ndarray:
    """erf elementwise, by math.erf."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel()), float, x.size).reshape(x.shape)


def passage_integral(law: StableLaw, lower: float, x) -> np.ndarray | float:
    """int_lower^inf q_s(x) ds = theta * int_0^{x lower^(-1/theta)} p_1(-v) dv.

    The substitution v = x s^(-1/theta) turns the s-integral into a finite one;
    with lower = 0 it equals theta * P[X_1 < 0] = 1 (the passage time is a.s.
    finite).  theta = 2 closes to erf(x / (2 sqrt(lower))).
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    if lower < 0:
        raise ValueError("lower must be >= 0")
    th = law.theta
    if law.is_gaussian:
        out = _erf(xs / (2.0 * math.sqrt(lower))) if lower else np.ones(xs.shape)
    else:
        v = np.minimum(xs * (lower ** (-1.0 / th) if lower else math.inf), _LEFT_CUT)
        out = -th * _grid(law).pieces(-v, integrate=True)  # int_0^v p_1(-w) dw = -int_0^-v p_1
    return float(out) if np.ndim(x) == 0 else out


def gamma_a(law: StableLaw, a: float, x) -> np.ndarray | float:
    """Gamma_a(x) = theta q_{1-a}(x) / int_{1-a}^inf q_s(x) ds, x in [1e-3, 1e3]."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0,1)")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((xs < GAMMA_X_LO) | (xs > GAMMA_X_HI)):
        raise GammaDomainError(
            f"Gamma_a supported on [{GAMMA_X_LO}, {GAMMA_X_HI}]; got values outside"
        )
    num = law.theta * np.asarray(first_passage_density(law, 1.0 - a, xs))
    out = num / passage_integral(law, 1.0 - a, xs)
    return float(out[0]) if np.ndim(x) == 0 else out


# -- excursion measure ------------------------------------------------------------------


def zeta_tail(law: StableLaw, t: float) -> float:
    """N(zeta > t) = t^(-1/theta) / Gamma(1 - 1/theta) under the excursion measure."""
    if t <= 0:
        raise ValueError("t must be positive")
    return t ** (-1.0 / law.theta) / math.gamma(1.0 - 1.0 / law.theta)


def excursion_marginal_theta2(t: float, y) -> np.ndarray | float:
    """Density at y of H_t under N(.|zeta=1) for theta = 2; 0 for y <= 0.

    H under the normalized excursion law is sqrt(2) times the normalized
    Brownian excursion, whose time-t marginal is
    f_t(x) = sqrt(2/pi) (t(1-t))^(-3/2) x^2 exp(-x^2 / (2 t (1-t))) on x > 0.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0,1)")
    ys = np.maximum(np.asarray(y, dtype=float), 0.0) / math.sqrt(2.0)
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
    out = _erf(z / math.sqrt(2.0)) - z * np.sqrt(2.0 / math.pi) * np.exp(-(z**2) / 2.0)
    return float(out) if np.ndim(y) == 0 else out


def excursion_height_mean(t: float) -> float:
    """E[H_t] under N(.|zeta=1), theta = 2: sqrt(2) * 2 sigma sqrt(2/pi)."""
    sig = math.sqrt(t * (1.0 - t))
    return math.sqrt(2.0) * 2.0 * sig * math.sqrt(2.0 / math.pi)
