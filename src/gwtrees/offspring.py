"""Offspring distributions for critical branching processes.

A law mu on {0,1,2,...} drives the whole pipeline, and every exact table and
sampler takes the ``OffspringLaw`` itself.  The Lukasiewicz walk W steps by
nu(k) = mu(k+1) (k >= -1), which has zero mean exactly when mu is critical;
the shift is applied where walk tables are built.  The scaling constant B_n is
calibrated so that W_n / B_n converges to the spectrally positive stable
variable X_1 with E[exp(-lam*X_1)] = exp(lam^theta).

A law is its family and either a parameter or a probability vector; the index
theta, the mean, the variance, the tail constant and the sizes n with
P[zeta = n] > 0 (``child_count_sums``) follow from mu and are derived, never
given.  Two closed-form families are provided:

* ``make_geometric(p)``: mu(k) = (1-p) p^k, critical at p = 1/2 (theta = 2).
* ``make_stable_family(theta)``: generating function f(s) = s + (1-s)^theta/theta,
  which is critical with mu(k) ~ c k^(-1-theta), c = (theta-1)/Gamma(2-theta).

Explicit finite-support laws cover everything else (tilting targets, truncated
heavy-tail laws for exact small-n work).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OffspringLaw",
    "make_geometric",
    "make_stable_family",
    "make_explicit",
    "tilt_to_critical",
    "calibrate_bn",
    "law_from_spec",
]

SUM_TOL = 1e-12
CRIT_TOL = 1e-10
LAMBDA_TOL = 1e-12
# Largest offspring value served: support_cap raises past it.
VALUE_CEIL = 1 << 62
_PARAM_RANGE = {"geometric": (0.0, 1.0), "stable": (1.0, 2.0)}  # open interval of each param


class LawError(ValueError):
    """Invalid offspring-law parameters or an operation outside the law's domain."""


@dataclass(frozen=True, eq=False)
class OffspringLaw:
    """Probability law on {0,1,2,...}, built and validated by its one constructor.

    ``family`` "geometric" takes ``param`` p in (0,1) and "stable" takes ``param``
    theta in (1,2); their stored prefix of ``probs`` is computed here, extended
    lazily, and the mass beyond any prefix is known analytically.  "explicit"
    takes ``probs`` only: its full support, trailing zeros trimmed.  Any other
    family, or a parameter the family does not take, is a LawError.
    """

    family: str
    param: Optional[float] = None
    probs: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        family, param = self.family, self.param
        if not isinstance(family, str):
            raise LawError(f"a law family is a name such as 'geometric', got {family!r}")
        if family == "explicit":
            if param is not None:
                raise LawError(f"an explicit law takes no param, got {param!r}")
            if self.probs is None:
                raise LawError("an explicit law needs its probabilities")
            p = np.asarray(self.probs, dtype=float)
            if p.ndim != 1:
                raise LawError(f"explicit probabilities must be a flat list, got {p.ndim} dimensions")
            p = np.trim_zeros(p, trim="b")
            if p.size == 0:
                raise LawError("empty probability vector")
        elif family in _PARAM_RANGE:
            if self.probs is not None:
                raise LawError(f"a {family} law takes a param, not probabilities")
            if isinstance(param, bool) or not isinstance(param, numbers.Real):
                raise LawError(f"a {family} law needs a numeric param, got {param!r}")
            lo, hi = _PARAM_RANGE[family]
            if not lo < param < hi:
                raise LawError(f"a {family} law needs param in ({lo:g},{hi:g}), got {param!r}")
            cap = 256 if family == "stable" else max(8, math.ceil(math.log(1e-18) / math.log(param)))
            p = _family_probs(family, param, cap)
        else:
            raise LawError(f"unknown law family {family!r}")
        object.__setattr__(self, "probs", p)  # tail_mass below reads it
        if not np.all(np.isfinite(p)):
            raise LawError("probabilities must be finite")
        if np.any(p < 0):
            raise LawError("negative probability entries")
        if p[0] <= 0.0:
            raise LawError("mu(0) must be positive")
        if p.size > 1 and p[1] >= 1.0:
            raise LawError("mu(1) must be < 1")
        total = float(p.sum()) + self.tail_mass(p.size - 1)
        if abs(total - 1.0) > SUM_TOL:
            raise LawError(f"probabilities sum to {total!r}, not 1")
        p.flags.writeable = False

    # -- derived quantities ---------------------------------------------------

    @cached_property
    def theta(self) -> float:
        """Index of the stable limit: the stable family's param, 2 for finite variance."""
        return self.param if self.family == "stable" else 2.0

    @cached_property
    def mean(self) -> float:
        if self.family == "geometric":
            return self.param / (1.0 - self.param)
        if self.family == "stable":
            return 1.0
        return float(np.arange(self.probs.size, dtype=float) @ self.probs)

    @cached_property
    def variance(self) -> float:
        """math.inf marks infinite variance (the stable family)."""
        if self.family == "geometric":
            return self.param / (1.0 - self.param) ** 2
        if self.family == "stable":
            return math.inf
        k = np.arange(self.probs.size, dtype=float)
        return float((k - self.mean) ** 2 @ self.probs)

    @cached_property
    def tail_constant(self) -> Optional[float]:
        """c with mu(k) ~ c * k**(-1-theta): (theta-1)/Gamma(2-theta) for the stable family."""
        if self.family == "stable":
            return (self.param - 1.0) / math.gamma(2.0 - self.param)
        return None

    @cached_property
    def tables(self) -> dict:
        """The latest table of each kind derived from this law (exact tables, the
        sampler's step table and tilt), one key per kind: they go with the law."""
        return {}

    # -- mass bookkeeping ---------------------------------------------------

    def tail_mass(self, k):
        """Exact mass of {k+1, k+2, ...}, for an int k (a float back) or an integer array.

        Geometric: p^(k+1).  Stable family: |binom(theta-1, k)| / theta, from the
        partial-sum identity of the binomial series.  Explicit: the sum of mu(j)
        over j > k, summed from the top of the support down (0 from the top on).
        """
        kk = np.maximum(np.asarray(k), -1)
        if self.family == "geometric":
            out = float(self.param) ** (kk + 1.0)
        elif self.family == "stable":
            out = _stable_tail(self.theta, kk)
        else:
            above = np.append(np.cumsum(self.probs[::-1])[::-1], 0.0)  # above[j] = P[mu >= j]
            out = above[np.minimum(kk + 1, self.probs.size)]
        out = np.where(kk < 0, 1.0, out)
        return float(out) if kk.ndim == 0 else out

    def probabilities(self, k_max: int) -> np.ndarray:
        """mu(0..k_max) as a vector (padded with exact values or zeros)."""
        if k_max < self.probs.size:
            return self.probs[: k_max + 1].copy()
        if self.family == "explicit":
            out = np.zeros(k_max + 1)
            out[: self.probs.size] = self.probs
            return out
        return _family_probs(self.family, float(self.param), k_max)

    def support_cap(self, eps: float) -> int:
        """Smallest K with tail_mass(K) <= eps: the package's one inverse of mu's tail.

        Served for every eps in [tail_mass(VALUE_CEIL), 1]; LawError below it.
        A first guess (closed form for the geometric family, the power law
        tail(K) ~ (c/theta) K^-theta for the stable family) is checked with one
        tail_mass call over guess -+ 64, and a bisection runs only when that scan
        misses.  An explicit law returns the top of its support for every eps:
        tables built from it then cover every support point.
        """
        if self.family == "explicit":
            return self.probs.size - 1
        if not eps > 0.0:
            guess = math.inf
        elif self.family == "geometric":
            guess = math.log(eps) / math.log(float(self.param)) - 1.0
        else:
            guess = (float(self.tail_constant) / (self.theta * eps)) ** (1.0 / self.theta)
        guess = int(min(max(guess, 0.0), VALUE_CEIL))
        ks = np.arange(max(0, guess - 64), min(guess + 64, VALUE_CEIL) + 1)
        below = np.flatnonzero(self.tail_mass(ks) <= eps)
        if below.size and (below[0] > 0 or ks[0] == 0):
            return int(ks[below[0]])
        # the scan missed: bisect with tail(lo) > eps >= tail(hi), lo = -1 for tail = 1
        if below.size:
            lo, hi = -1, int(ks[0])
        else:
            floor = self.tail_mass(VALUE_CEIL)
            if floor > eps:
                raise LawError(f"support_cap serves eps >= {floor!r} for this law, got {eps!r}")
            lo, hi = int(ks[-1]), VALUE_CEIL
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.tail_mass(mid) > eps:
                lo = mid
            else:
                hi = mid
        return hi

    # -- structural properties ----------------------------------------------

    @cached_property
    def child_count_sums(self) -> Tuple[int, Tuple[bool, ...]]:
        """(span, sums): as mu(0) > 0, a tree with n vertices exists iff n - 1 is a sum of
        positive support points, i.e. n - 1 = span * m (span: their gcd) with sums[m], whose
        last entry stands for every larger m.  With s the least point over span, the table ends
        at its first run of s true entries, past which adding s reaches every m.  For the closed
        forms the stored prefix of probs, which holds 1, or 2 and 3, decides the table."""
        points = np.flatnonzero(self.probs[1:]) + 1
        if not points.size:  # support {0}: the single vertex is the only tree
            return 1, (True, False)
        span = int(np.gcd.reduce(points))
        points, s = points // span, int(points[0]) // span
        sums = np.arange(s) == 0  # the empty sum
        while not sums[-s:].all():  # a block of s entries reads only earlier ones
            prev = sums.size + np.arange(s) - points[points < sums.size + s, None]
            sums = np.append(sums, (sums[prev.clip(0)] & (prev >= 0)).any(axis=0))
        return span, tuple(sums.tolist())

    def size_possible(self, n: int) -> bool:
        """Whether P[zeta = n] > 0, for n >= 1 (see ``child_count_sums``)."""
        span, sums = self.child_count_sums
        return (n - 1) % span == 0 and sums[min((n - 1) // span, len(sums) - 1)]

    @property
    def is_critical(self) -> bool:
        return abs(self.mean - 1.0) <= CRIT_TOL

    def require_critical(self, what: str = "operation") -> None:
        if not self.is_critical:
            raise LawError(f"{what} requires a critical law (mean = {self.mean!r})")

    def require_sizes(self, what: str, sizes: Sequence[int]) -> None:
        """Refuse an empty size list, a periodic law (span > 1: the paper's laws are
        aperiodic) and any size n with P[zeta = n] = 0, naming the span or the size."""
        if len(sizes) == 0:
            raise LawError(f"{what} needs at least one size")
        span = self.child_count_sums[0]
        if span > 1:
            raise LawError(f"{what} requires an aperiodic law; the child counts have span {span}")
        for n in sizes:
            if not self.size_possible(n):
                raise LawError(f"{what}: P[zeta = {n}] = 0 for this law")

    def truncate(self, cap: int) -> "OffspringLaw":
        """Explicit law supported on {0..cap}.

        The discarded tail mass is redistributed by renormalization, so the
        result is a proper, slightly subcritical law; exact identities
        (Kemperman, cycle lemma, absolute continuity) hold for it verbatim.
        """
        probs = self.probabilities(cap)
        return make_explicit(probs / probs.sum())


# -- constructors -------------------------------------------------------------


_PROBS_BLOCK = 1 << 16  # ratios per block when _family_probs fills a long table


def _family_probs(family: str, param: float, k_max: int) -> np.ndarray:
    out = np.zeros(k_max + 1)
    if family == "geometric":
        out[:] = (1.0 - param) * param ** np.arange(k_max + 1)
        return out
    # stable, param = theta: mu(0)=1/theta, mu(1)=0, mu(2)=(theta-1)/2, ratio (k-theta)/(k+1);
    # the ratios are written in place blockwise, so no temporary is as long as the result
    theta = param
    out[0] = 1.0 / theta
    if k_max >= 2:
        out[2] = (theta - 1.0) / 2.0
        for lo in range(2, k_max, _PROBS_BLOCK):
            k = np.arange(lo, min(lo + _PROBS_BLOCK, k_max), dtype=float)
            out[lo + 1 : lo + 1 + k.size] = (k - theta) / (k + 1.0)
        np.cumprod(out[2:], out=out[2:])
    return out


# B_0 .. B_11, the Bernoulli numbers the tail series needs
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0)
_SERIES_FROM = 32  # from here on ten terms of the series in 1/k are exact to ~1e-18


def _bernoulli_poly(n: int, x: float) -> float:
    return sum(math.comb(n, i) * _BERNOULLI[i] * x ** (n - i) for i in range(n + 1))


@lru_cache(maxsize=64)
def _stable_tail_terms(theta: float) -> Tuple[np.ndarray, np.ndarray, float]:
    """Tail masses below _SERIES_FROM, the series coefficients and the prefactor.

    Below _SERIES_FROM the tail is the product (theta-1)/theta prod_{i=2..k} (i-theta)/i.
    Beyond, tail(k) = (theta-1) / (theta Gamma(2-theta)) exp(L(k)) with
    L(k) = log Gamma(k+a) - log Gamma(k+b), a = 1-theta, b = 1, whose asymptotic
    series (a-b) log k + sum_j (-1)^(j+1) [B_{j+1}(a) - B_{j+1}(b)] / (j (j+1) k^j)
    has no cancellation, unlike the difference of two lgamma values.
    """
    i = np.arange(2, _SERIES_FROM)
    small = np.concatenate(
        [[1.0 - 1.0 / theta], (theta - 1.0) / theta * np.cumprod(np.r_[1.0, (i - theta) / i])]
    )
    a = 1.0 - theta
    coef = np.array([(-1) ** (j + 1) * (_bernoulli_poly(j + 1, a) - _bernoulli_poly(j + 1, 1.0))
                     / (j * (j + 1)) for j in range(1, len(_BERNOULLI) - 1)])
    return small, coef, (theta - 1.0) / (theta * math.gamma(2.0 - theta))


def _stable_tail(theta: float, k: np.ndarray) -> np.ndarray:
    small, coef, prefactor = _stable_tail_terms(theta)
    kf = np.maximum(k, _SERIES_FROM).astype(float)
    series = (1.0 / kf)[..., None] ** np.arange(1, coef.size + 1) @ coef
    out = prefactor * np.exp(series - theta * np.log(kf))
    return np.where(k < _SERIES_FROM, small[np.minimum(k, _SERIES_FROM - 1)], out)


def make_geometric(p: float) -> OffspringLaw:
    """Geometric offspring law mu(k) = (1-p) p^k; critical iff p = 1/2."""
    return OffspringLaw("geometric", p)


def make_stable_family(theta: float) -> OffspringLaw:
    """Critical law with generating function f(s) = s + (1-s)^theta / theta.

    mu(0) = 1/theta, mu(1) = 0, mu(k) = |binom(theta, k)| / theta for k >= 2,
    so mu(k) ~ c k^(-1-theta) with c = (theta-1)/Gamma(2-theta).  Requires
    theta strictly inside (1,2): the theta = 2 member has support {0,2} and is
    periodic (use make_geometric for the finite-variance case).
    """
    return OffspringLaw("stable", theta)


def make_explicit(probs: Sequence[float]) -> OffspringLaw:
    """Finite-support law from an explicit probability vector."""
    return OffspringLaw("explicit", probs=probs)


# -- operations ----------------------------------------------------------------


def _tilt(probs: np.ndarray, lam: float) -> np.ndarray:
    """mu(k) lam^k normalized, from lam^(k - top) for lam > 1 so that no power overflows."""
    k = np.arange(probs.size, dtype=float)
    w = probs * lam ** (k - k[-1] if lam > 1.0 else k)
    return w / w.sum()


def tilt_to_critical(law: OffspringLaw) -> OffspringLaw:
    """Exponential tilt mu_lam(k) = mu(k) lam^k / sum_i mu(i) lam^i with mean 1.

    lam is located by bracketing and bisection on the (monotone) tilted mean.
    Tilting preserves the support set and, for any n, the conditional law
    of the tree given {zeta = n}.
    """
    if law.is_critical:
        return law
    if law.family == "geometric":
        # tilting maps geometric(p) to geometric(p*lam); criticality at p*lam=1/2
        return make_geometric(0.5)

    probs = law.probs
    if float(probs[1:].sum()) <= 0.0 or np.flatnonzero(probs).max() < 2:
        # support inside {0,1}: tilted mean < 1 for every lam
        raise LawError("no tilt parameter can reach mean 1: support lies in {0,1}")
    k = np.arange(probs.size, dtype=float)
    lo, hi = 1.0, 1.0
    if law.mean > 1.0:
        while k @ _tilt(probs, lo) > 1.0:
            lo *= 0.5
            if lo < 1e-300:
                raise LawError("tilt bracketing failed below (mean stays > 1)")
    else:
        while k @ _tilt(probs, hi) < 1.0:
            hi *= 2.0
            if hi > 1e300:
                raise LawError("tilt bracketing failed above (mean stays < 1)")
    while hi - lo > LAMBDA_TOL * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if k @ _tilt(probs, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    out = make_explicit(_tilt(probs, 0.5 * (lo + hi)))
    if abs(out.mean - 1.0) > CRIT_TOL:
        raise LawError(f"tilted mean {out.mean!r} missed criticality tolerance")
    return out


def calibrate_bn(law: OffspringLaw, n: int) -> float:
    """Scaling constant B_n with W_n / B_n -> X_1, E[exp(-lam X_1)] = exp(lam^theta).

    Finite variance sigma^2: B_n = sigma * sqrt(n/2) (the theta = 2 limit has
    variance 2).  Power tail mu(k) ~ c k^(-1-theta): Levy-measure matching gives
    B_n = (c * Gamma(2-theta) * n / (theta*(theta-1)))^(1/theta), which for the
    built-in stable family collapses to (n/theta)^(1/theta).
    """
    if n < 1:
        raise LawError("n must be >= 1")
    law.require_critical("calibrate_bn")
    if math.isfinite(law.variance):
        return math.sqrt(law.variance * n / 2.0)
    th = law.theta  # infinite variance: the stable family, which has a tail constant
    c = law.tail_constant
    return (c * math.gamma(2.0 - th) * n / (th * (th - 1.0))) ** (1.0 / th)


# -- law file format ------------------------------------------------------------


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LawError(f"{what} must be a number, got {value!r}")
    return float(value)


def law_from_spec(spec: dict) -> OffspringLaw:
    """Build a law from the JSON description {"family": ..., "param": ..., "probabilities": ...}.

    A geometric spec without a "param" key is geometric(1/2); a key set to null gives no value.
    """
    if not isinstance(spec, dict):
        raise LawError(f"a law spec is a JSON object, got {type(spec).__name__}")
    family = spec.get("family")
    probs = spec.get("probabilities")
    if probs is not None:
        if not isinstance(probs, list):
            raise LawError(f"probabilities must be a list of numbers, got {probs!r}")
        probs = [_number(p, "each probability") for p in probs]
    return OffspringLaw(family, spec.get("param", 0.5 if family == "geometric" else None), probs)
