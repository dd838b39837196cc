"""Exact finite-n probability computations for the left-continuous walk.

The walk W has i.i.d. steps nu(k) = mu(k+1), k >= -1, so it moves down by at
most 1 per step.  That skip-free structure gives two workhorses:

* Kemperman's formula P[zeta_j = n] = (j/n) P[W_n = -j], linking hitting times
  of -j to plain walk marginals (the hitting-time theorem; van der Hofstad &
  Keane 2008, Amer. Math. Monthly 115, give a short proof).  It also advances
  the killed walk (meander) a block of steps per convolution: the mass that
  first leaves [0, inf) at each step of the block is read off W_s tables, and
  its free continuation from -1 is subtracted; the mass killed at step t is
  P[zeta = t].  The same block, run backward on the probability of hitting -1
  within t steps, is a correlation with no ceiling and gives phi*;
* ceiling protection: when building the law of W_n by convolution, any mass
  clipped above ``hi + (n - m)`` at an intermediate step m can never return
  below ``hi`` within the remaining n - m steps, so the final table is exact on
  [-n, hi] no matter how heavy the step tail is.  The clipped mass is tracked
  in ``truncated_mass``.  ``_advance`` clips every such ceiling: binary
  powering, the block tables and the killed walk's free step all go through it.

"Exact" means that no mass is lost on the protected window.  Large convolutions
run on a real FFT, whose rounding is absolute (up to 2.5e-16 on a theta = 1.5
W_512 table, against direct summation): smaller entries have no relative
accuracy, and trailing entries below the rounding bound are trimmed as noise.

Total-progeny laws are computed along two independent routes (the killed
walk's per-step loss, and the branching recursion through the generating
function) and cross-checked; hitting probabilities phi_n(j) = P[zeta_j = n]
for all j are read off one ``walk_pmf(law, n, 0)`` table, and
phi*_n(j) = P[zeta_j >= n] for all j come from n/16 block convolutions.  Walk,
progeny and meander tables share one type, ``PmfTable``.  Every function takes
the ``OffspringLaw`` (``_step_table`` applies the shift), and the progeny law,
the W_n tables, the phi* profile and the meander are each cached per law,
built once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .codings import Tree
from .offspring import OffspringLaw
from .report import ExperimentReport

__all__ = [
    "PmfTable",
    "ExactLawError",
    "walk_pmf",
    "progeny_pmf",
    "phi",
    "phi_star",
    "discrete_ratio_window",
    "enumerate_conditioned",
    "check_absolute_continuity",
    "progeny_rho",
    "meander_pmf",
    "conditioned_walk_marginal",
]

MASS_TOL = 1e-12
MEANDER_BLOCK = 16  # walk steps per block of meander_pmf and of the phi* recursion
MAX_ENUMERATED = 250_000  # trees enumerate_conditioned may list


class ExactLawError(RuntimeError):
    """Truncation budget exceeded or a cross-check between exact routes failed."""


@dataclass(frozen=True, eq=False)
class PmfTable:
    """Finite-support (sub-)pmf with its smallest represented value and clipped mass.

    Entries at values <= ``exact_hi`` lost no mass to clipping but carry an
    absolute FFT rounding error of order 1e-16; values above may have lost
    mass to ceiling clipping (tracked in truncated_mass).  Walk and progeny
    tables book 1 - sum as truncated_mass; a killed walk's (meander's) defect
    1 - sum - truncated_mass is its killed mass.
    """

    offset: int
    masses: np.ndarray
    truncated_mass: float
    exact_hi: int

    def __post_init__(self):
        if np.any(self.masses < 0):
            raise ExactLawError("negative pmf entry")
        total = float(self.masses.sum()) + self.truncated_mass
        if total > 1.0 + MASS_TOL:
            raise ExactLawError(f"pmf mass {total!r} exceeds 1 beyond budget")
        self.masses.flags.writeable = False

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.masses.size - 1

    def prob(self, k: int) -> float:
        i = k - self.offset
        if 0 <= i < self.masses.size:
            return float(self.masses[i])
        return 0.0

    def probs(self, ks) -> np.ndarray:
        ks = np.asarray(ks)
        i = ks - self.offset
        out = np.zeros(ks.shape)
        ok = (i >= 0) & (i < self.masses.size)
        out[ok] = self.masses[i[ok]]
        return out


# -- convolution plumbing --------------------------------------------------------


@lru_cache(maxsize=None)
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the 5-smooth real-FFT length (cached per n)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5  # 3^b 5^c, completed by the smallest power of 2 that reaches n
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _conv(a: np.ndarray, b: np.ndarray, memo: Optional[dict] = None) -> np.ndarray:
    """Full convolution of a and b.  ``memo`` holds b's real FFT for the last
    transform length, for loops whose kernel b is fixed.

    The FFT branch's rounding is absolute, about EPS * |a|_2 * |b|_2 per entry:
    negative noise is clipped at 0 and trailing entries under 8x that scale are
    trimmed, so noise neither counts as mass nor widens later convolutions.
    """
    if a.size * b.size <= 1 << 20 or min(a.size, b.size) <= 96:
        return np.convolve(a, b)
    size = a.size + b.size - 1
    L = _fast_len(size)
    if memo is None:
        memo = {}
    if L not in memo:
        memo.clear()
        memo[L] = np.fft.rfft(b, L)
    out = np.fft.irfft(np.fft.rfft(a, L) * memo[L], L)[:size]
    np.maximum(out, 0.0, out=out)
    noise = 8.0 * np.finfo(float).eps * math.sqrt(float(a @ a) * float(b @ b))
    above = out[::-1] > noise
    return out[: out.size - int(np.argmax(above))] if above.any() else out[:0]


def _advance(
    off: int, arr: np.ndarray, k_off: int, kernel: np.ndarray, ceiling: int,
    memo: Optional[dict] = None,
) -> Tuple[int, np.ndarray]:
    """Table of X + Y for X ~ (off, arr), Y ~ (k_off, kernel), clipped above ``ceiling``."""
    out = _conv(arr, kernel, memo)
    keep = ceiling - (off + k_off) + 1
    if keep <= 0:
        raise ExactLawError("ceiling clipped the entire table")
    return off + k_off, out[:keep]


def _step_table(law: OffspringLaw, hi: int) -> Tuple[int, np.ndarray]:
    """nu(k) = mu(k+1) on [-1, min(hi, cap)], negligible analytic tail trimmed.

    The trim threshold 1e-18 keeps the cumulative bookkeeping error of an
    n-step build below ~n * 1e-18, far inside the 1e-12 mass budget; heavy
    tails (no usable cap) are kept at full width hi for pointwise exactness.
    """
    cap = law.support_cap(1e-18) - 1
    return -1, law.probabilities(min(hi, max(cap, 1)) + 1)


@lru_cache(maxsize=256)
def _walk_table(law: OffspringLaw, n: int, hi_eval: int) -> PmfTable:
    """Law of W_n, exact on [-n, hi_eval], by binary-decomposition convolution.

    Intermediate m-step tables are clipped at hi_eval + (n - m); the walk cannot
    descend more than n - m in the remaining steps, so clipped mass never
    contaminates the protected window.  Cached per (law, n, hi_eval).
    """
    if n < 1:
        raise ExactLawError("n must be >= 1")
    pw_off, pw = _step_table(law, hi_eval + (n - 1))
    acc_off, acc, acc_m, pw_m = None, None, 0, 1
    bits = n
    while bits:
        if bits & 1:
            if acc is None:
                acc_off, acc, acc_m = pw_off, pw, pw_m
            else:
                acc_off, acc = _advance(
                    acc_off, acc, pw_off, pw, hi_eval + (n - acc_m - pw_m)
                )
                acc_m += pw_m
        bits >>= 1
        if bits:
            pw_off, pw = _advance(pw_off, pw, pw_off, pw, hi_eval + (n - 2 * pw_m))
            pw_m *= 2
    return PmfTable(acc_off, acc, max(0.0, 1.0 - float(acc.sum())), hi_eval)


def walk_pmf(law: OffspringLaw, n: int, exact_hi: Optional[int] = None) -> PmfTable:
    """Exact law of W_n = sum of n i.i.d. nu-steps, exact on [-n, exact_hi].

    With ``exact_hi=None`` the full support [-n, K*n] is built when the step law
    has a usable support cap K, otherwise exact_hi defaults to a bulk window of
    ~64 * n^(1/theta).  Tables are cached per law, n and resolved exact_hi.
    """
    if exact_hi is None:
        cap = law.support_cap(1e-18) - 1  # of nu
        if cap * n <= 1 << 22:
            exact_hi = cap * n
        else:
            exact_hi = int(64.0 * n ** (1.0 / law.theta)) + 1
    if exact_hi < -n:
        raise ExactLawError("exact_hi below the walk's minimum")
    return _walk_table(law, n, exact_hi)


def _block_tables(law: OffspringLaw, top: int, J: int) -> Tuple[List[np.ndarray], np.ndarray]:
    """W_0..W_J, each exact on [-s, top + 1], and the first-passage matrix of a block.

    ``walks[s][k + s] = P[W_s = k]``; ``kem[s - 1, x] = (x+1)/s P[W_s = -(x+1)]``
    is the probability that the walk from x first hits -1 at step s (Kemperman).
    Steps beyond top + J and mass above the moving ceiling top + 1 + (J - s)
    cannot reach [-s, top + 1].
    """
    off, step = _step_table(law, top + J)
    walks, memo = [np.ones(1), step], {}
    for s in range(2, J + 1):  # copies, not views that pin the wider conv outputs
        walks.append(_advance(1 - s, walks[-1], off, step, top + 1 + J - s, memo)[1].copy())
    kem = np.zeros((J, J))
    for s in range(1, J + 1):
        kem[s - 1, :s] = walks[s][s - 1 :: -1] * np.arange(1, s + 1) / s
    return walks, kem


# -- total progeny -----------------------------------------------------------------


def _rho_recursion(law: OffspringLaw, n_max: int) -> np.ndarray:
    """P[zeta = p] for p = 0..n_max via the branching (generating-function) route.

    Uses the coefficient recursion of R(z) = z f(R(z)) specialized per family:
    geometric laws close through F = (1-p) + p F R, the stable family through
    the series A = (1-R)^theta, and explicit laws through incremental powers
    of R.  No walk table is consulted, so this is independent of Kemperman.
    """
    rho = np.zeros(n_max + 1)
    if n_max < 1:
        return rho
    if law.family == "geometric":
        p = float(law.param)
        F = np.empty(max(n_max, 1))
        F[0] = 1.0 - p
        rho[1] = F[0]
        for m in range(1, n_max):
            F[m] = p * float(np.dot(F[:m], rho[m:0:-1]))
            rho[m + 1] = F[m]
        return rho
    if law.family == "stable":
        th = law.theta
        rho[1] = 1.0 / th
        A = np.empty(max(n_max, 1))
        A[0] = 1.0
        jrho = np.zeros(n_max + 1)  # j * rho(j), filled as rho grows
        jrho[1] = rho[1]
        for m in range(1, n_max):
            rev = A[m - 1 :: -1]
            s0 = float(np.dot(rho[1 : m + 1], rev))
            s1 = float(np.dot(jrho[1 : m + 1], rev))
            A[m] = (m * s0 - (1.0 + th) * s1) / m
            rho[m + 1] = rho[m] + A[m] / th if m > 1 else 0.0  # rho(2) = mu(0) mu(1) = 0
            jrho[m + 1] = (m + 1) * rho[m + 1]
        return rho
    # explicit: incremental powers P_k = R^k, rho(m+1) = sum_k mu(k) P_k[m]
    mu = law.probs
    K = mu.size - 1
    if n_max * n_max * max(K, 1) > 1 << 31:
        raise ExactLawError("explicit-law progeny recursion too large; use Kemperman")
    rho[1] = mu[0]
    P = np.zeros((K + 1, n_max + 1))
    P[0, 0] = 1.0
    for m in range(1, n_max):
        kq = min(K, m)
        for k in range(1, kq + 1):
            # [z^m] R^k = sum_i rho(i) [z^(m-i)] R^(k-1); zero entries pad the dot
            P[k, m] = float(np.dot(rho[1 : m + 1], P[k - 1, m - 1 :: -1]))
        rho[m + 1] = float(mu[1 : kq + 1] @ P[1 : kq + 1, m])
    return rho


@lru_cache(maxsize=64)
def progeny_rho(law: OffspringLaw, n_max: int) -> np.ndarray:
    """P[zeta = p], p = 0..n_max, by the branching recursion (read-only array)."""
    out = _rho_recursion(law, n_max)
    out.flags.writeable = False
    return out


def progeny_pmf(law: OffspringLaw, n_max: int) -> PmfTable:
    """Exact law of the total progeny on {1..n_max}.

    Computed twice, as the mass the killed walk from 0 loses at each step (read
    off walk tables by Kemperman, see ``_killed_walk``) and by the branching
    recursion; fails loudly if the two routes disagree beyond MASS_TOL.
    """
    if n_max < 1:
        raise ExactLawError("n_max must be >= 1")
    # the ceiling n_max - t at step t clips only mass that cannot reach -1 by n_max
    kem = np.append(0.0, _killed_walk(law, n_max, 0)[2])
    rec = progeny_rho(law, n_max)
    gap = float(np.max(np.abs(kem - rec)))
    if gap > MASS_TOL:
        raise ExactLawError(f"progeny routes disagree by {gap:.3e} (tolerance {MASS_TOL:.1e})")
    arr = rec[1:].copy()
    return PmfTable(1, arr, max(0.0, 1.0 - float(arr.sum())), n_max)


# -- hitting-time probabilities ------------------------------------------------------


def phi(law: OffspringLaw, n: int, j):
    """phi_n(j) = P[zeta_j = n] = (j/n) P[W_n = -j] (Kemperman), for an int j or an
    integer array of j; one cached W_n table serves every j."""
    js = np.asarray(j)
    if n < 1 or np.any(js < 1):
        raise ExactLawError("phi needs j >= 1 and n >= 1")
    out = js / n * walk_pmf(law, n, 0).probs(-js)
    return float(out) if js.ndim == 0 else out


def phi_star(law: OffspringLaw, n: int, j):
    """phi*_n(j) = P[zeta_j >= n] for an int j or an integer array of j; 1 for j >= n."""
    js = np.asarray(j)
    if n < 1 or np.any(js < 1):
        raise ExactLawError("phi_star needs j >= 1 and n >= 1")
    out = _phi_star_profile(law, n)[np.minimum(js, n) - 1]
    return float(out) if js.ndim == 0 else out


@lru_cache(maxsize=128)
def _phi_star_profile(law: OffspringLaw, p: int) -> np.ndarray:
    """phi*_p(j) = 1 - d_{p-1}(j-1) for j = 1..p (read-only), where
    d_t(x) = P[the walk from x hits -1 within t steps] lives on [0, t), d_0 = 0.

    A block of r <= MEANDER_BLOCK steps is one correlation with W_r, split at the
    first passage tau of -1:  d_{t+r}(x) = K_r(x) + sum_k P[W_r = k] d_t(x+k)
    - sum_{s<r} P_x[tau = s] g_s  (d_t taken 0 below 0), with
    P_x[tau = s] = (x+1)/s P[W_s = -(x+1)], K_r(x) = sum_{s<=r} P_x[tau = s], and
    g_s = sum_{k>=1} P[W_{r-s} = k] d_t(k-1) the free continuation from -1 that
    the correlation wrongly credits to a path already absorbed at step s.
    """
    d = np.zeros(0)
    if p > 1:
        J = min(MEANDER_BLOCK, p - 1)
        walks, kem = _block_tables(law, p - 2, J)  # W_s exact on [-s, p - 1]
        hit = np.cumsum(kem, axis=0)  # hit[r - 1, x] = K_r(x)
        rev, memo = walks[J][::-1].copy(), {}  # fixed kernel: the memo stays valid
        d = hit[J - 1].copy()
        while d.size < p - 1:
            t = d.size
            r = min(J, p - 1 - t)
            w = walks[r]
            full = _conv(d, rev, memo) if r == J else _conv(d, w[::-1])
            # sum_k P[W_r = k] d_t(x + k) sits at index x + w.size - 1 - r
            free = full[w.size - 1 - r : w.size - 1 + t]
            nxt = np.pad(free, (0, t + r - free.size))
            g = np.array([walks[q][q + 1 : q + 1 + t] @ d[: walks[q].size - q - 1]
                          for q in range(r - 1, 0, -1)])  # g_s with q = r - s
            nxt[:r] += hit[r - 1, :r] - g @ kem[: r - 1, :r]
            d = np.clip(nxt, 0.0, 1.0)
    out = 1.0 - np.append(d, 0.0)
    out.flags.writeable = False
    return out


# -- discrete absolute-continuity ratio ------------------------------------------------


def discrete_ratio_window(
    law: OffspringLaw, n: int, a: float, k_lo: int, k_hi: int
) -> np.ndarray:
    """D_n^(a)(k) for k = k_lo..k_hi: the weight relating {zeta = n} to {zeta >= n}
    on walk prefixes,

    D = [phi_{n-floor(an)}(k+1) / phi_n(1)] / [phi*_{n-floor(an)}(k+1) / phi*_n(1)].

    D is undefined where P[zeta = n] = phi_n(1) vanishes, and is refused there.
    """
    if not 0.0 < a < 1.0:
        raise ExactLawError("a must lie in (0,1)")
    if not 0 <= k_lo <= k_hi:
        raise ExactLawError(f"the window needs 0 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    rest = n - int(math.floor(a * n))
    rho = progeny_rho(law, n)
    phi_n1 = float(rho[n])
    if phi_n1 <= 0.0:
        raise ExactLawError(f"P[zeta = {n}] = 0")
    phistar_n1 = max(0.0, 1.0 - float(rho[:n].sum()))
    js = np.arange(k_lo + 1, k_hi + 2)
    num = phi(law, rest, js) / phi_n1
    den = phi_star(law, rest, js) / phistar_n1
    if np.any(den <= 0.0):
        raise ExactLawError("phi* vanished on the requested window")
    return num / den


# -- killed walk (meander) ---------------------------------------------------------------


def _killed_walk(law: OffspringLaw, m: int,
                 exact_hi: int) -> Tuple[np.ndarray, float, np.ndarray]:
    """The walk from 0 killed on leaving [0, inf), after m steps: its table on
    [0, ...] (exact up to exact_hi), the alive mass clipped at the moving
    ceiling, and the mass killed at each step t = 1..m, which is P[zeta = t].

    The ceiling starts at exact_hi + m and falls by one per step, so the clipped
    mass lives strictly above the exact range.  Blocks of r <= MEANDER_BLOCK
    steps advance the killed table v at once: a path from x first leaves
    [0, inf) at step s with probability (x+1)/s P[W_s = -(x+1)] (Kemperman), and
    then sits at -1, so
    v'(k) = sum_x v(x) P[W_r = k-x] - sum_{s<r} h_s P[W_{r-s} = k+1] for k >= 0,
    with h_s = sum_{x<s} v(x) (x+1)/s P[W_s = -(x+1)] the mass killed at step s.
    """
    top = exact_hi + m  # ceiling at step 0
    J = min(MEANDER_BLOCK, m)
    walks, kem = _block_tables(law, top, J)
    v, clipped, t, memo = np.ones(1), 0.0, 0, {}  # v: the killed table on [0, ...]
    killed = np.zeros(m)
    while t < m:
        r = min(J, m - t)
        t += r
        free = _advance(0, v, -r, walks[r], top - t, memo if r == J else None)[1][r:]
        h = kem[:r, : v.size] @ v[:J]  # mass killed at each step of the block
        killed[t - r : t] = h
        for s in range(1, r):  # killed at step s, then r - s free steps from -1
            seg = walks[r - s][r - s + 1 : r - s + 1 + free.size]  # P[W_{r-s} = k + 1]
            free[: seg.size] -= h[s - 1] * seg
        np.maximum(free, 0.0, out=free)
        # alive mass not kept: above the ceiling, or jumps beyond the step table
        clipped += (float(v.sum()) - float(h.sum())) - float(free.sum())
        v = free
    return v, clipped, killed


@lru_cache(maxsize=32)
def meander_pmf(law: OffspringLaw, m: int, exact_hi: int) -> PmfTable:
    """Sub-probability law of W_m on {W stays >= 0 up to m}, exact on [0, exact_hi].

    Mass clipped at the moving ceiling exact_hi + m - t is returned in
    ``truncated_mass``; the table's total plus truncated_mass equals
    P[zeta_1 > m].  See ``_killed_walk``.
    """
    if m < 1:
        raise ExactLawError("m must be >= 1")
    v, clipped, _ = _killed_walk(law, m, exact_hi)
    return PmfTable(
        offset=0,
        masses=np.pad(v, (0, exact_hi + 1 - v.size)),  # spans [0, exact_hi]
        truncated_mass=max(0.0, clipped),
        exact_hi=exact_hi,
    )


def conditioned_walk_marginal(law: OffspringLaw, n: int, m: int) -> PmfTable:
    """P[W_m = k | zeta = n] for k = 0..n - m - 1, for 1 <= m < n.

    By the Markov property at m, P[W_m = k, zeta = n] = mea_m(k) phi_{n-m}(k + 1):
    the walk stays >= 0 up to m, then needs exactly n - m more steps to reach -1
    from k.  phi_p(j) = 0 for j > p, so the meander is needed exact on [0, n - m]
    only, and the table holds the whole conditional law.
    """
    if not 1 <= m < n:
        raise ExactLawError(f"the marginal needs 1 <= m < n, got m = {m}, n = {n}")
    p_n = float(progeny_rho(law, n)[n])
    if p_n <= 0.0:
        raise ExactLawError(f"P[zeta = {n}] = 0")
    rest = n - m
    mea = meander_pmf(law, m, rest).masses[:rest]
    return PmfTable(0, mea * phi(law, rest, np.arange(1, rest + 1)) / p_n, 0.0, rest - 1)


# -- exhaustive small-n machinery ------------------------------------------------------


def enumerate_conditioned(law: OffspringLaw, n: int) -> List[Tuple[Tree, float]]:
    """Every tree with zeta = n and its exact conditional probability.

    Probabilities are Prod_i mu(c_i) normalized by their sum, i.e. the law of a
    GW tree conditioned on {zeta = n}.  Exhaustive: at most MAX_ENUMERATED trees
    (n <= 13).
    """
    if n < 1:
        raise ExactLawError("n must be >= 1")
    if n > 1 and _catalan(n - 1) > MAX_ENUMERATED:
        raise ExactLawError(f"enumeration of {n}-vertex trees exceeds {MAX_ENUMERATED}")
    mu = law.probabilities(n)  # child counts above n-1 are impossible at zeta = n
    support = [int(c) for c in np.flatnonzero(mu > 0) if c <= n - 1]
    counts = np.zeros(n, dtype=np.int64)
    out: List[Tuple[Tree, float]] = []

    def rec(i: int, w: int, prob: float) -> None:
        if i == n - 1:
            # last vertex must close the tree: step to -1 means c = -1 - w + 1
            c = -w
            if 0 <= c <= n - 1 and mu[c] > 0:
                counts[i] = c
                out.append((Tree(counts.copy()), prob * mu[c]))
            return
        rem_after = n - i - 1
        for c in support:
            w2 = w + c - 1
            if w2 < 0 or w2 > rem_after - 1:
                continue
            counts[i] = c
            rec(i + 1, w2, prob * mu[c])

    rec(0, 0, 1.0)
    total = sum(p for _, p in out)
    if total <= 0.0:
        raise ExactLawError(f"law puts zero mass on zeta = {n}")
    return [(t, p / total) for t, p in out]


def check_absolute_continuity(law: OffspringLaw, n: int, a: float) -> ExperimentReport:
    """Exhaustive verification of the prefix absolute-continuity identity.

    For every walk prefix (W_0..W_m), m = floor(a n), realized while the walk is
    still alive, the conditional mass under {zeta = n} (computed by exhaustive
    tree enumeration) must equal the D-weighted conditional mass under
    {zeta >= n} (computed from hitting-probability tables).  Reports the
    maximum absolute discrepancy over prefixes; passes at 1e-10.
    """
    import time as _time

    t0 = _time.time()
    if not 0.0 < a < 1.0:
        raise ExactLawError("a must lie in (0,1)")
    m = int(math.floor(a * n))
    if m < 1:
        raise ExactLawError("floor(a*n) must be >= 1")
    # Prefixes containing a child count >= n contribute 0 to both sides
    # (the tree can't close at n vertices and phi_rest vanishes), so the
    # enumeration over counts <= n - 1 is complete for the discrepancy.
    mu = law.probabilities(n - 1)
    support = [int(c) for c in np.flatnonzero(mu > 0)]
    nu = {c - 1: mu[c] for c in support}

    # LHS: conditional prefix masses under {zeta = n} from tree enumeration
    lhs: dict = {}
    for tree, p in enumerate_conditioned(law, n):
        w = np.concatenate([[0], np.cumsum(tree.child_counts[:m] - 1)])
        key = tuple(int(x) for x in w)
        lhs[key] = lhs.get(key, 0.0) + p

    # RHS: D-weighted masses under {zeta >= n} over all alive prefixes
    rest = n - m
    j_hi_needed = max(m * (max(support) - 1) + 2, 2)
    phistar_r = phi_star(law, rest, np.arange(1, j_hi_needed + 1))
    d_vals = discrete_ratio_window(law, n, a, 0, j_hi_needed - 1)  # D(j - 1) at index j - 1
    phistar_n1 = max(0.0, 1.0 - float(progeny_rho(law, n)[:n].sum()))

    n_prefixes = (len(nu)) ** m
    if n_prefixes > 2_000_000:
        raise ExactLawError("prefix enumeration too large; reduce support or a")

    rhs: dict = {}
    prefix = [0] * (m + 1)

    def rec(i: int, w: int, prob: float) -> None:
        if i == m:
            key = tuple(prefix)
            j = w + 1
            weight = prob * phistar_r[j - 1] / phistar_n1
            rhs[key] = rhs.get(key, 0.0) + weight * d_vals[j - 1]
            return
        for s, ps in nu.items():
            w2 = w + s
            if w2 < 0:
                continue
            prefix[i + 1] = w2
            rec(i + 1, w2, prob * ps)

    rec(0, 0, 1.0)

    keys = set(lhs) | set(rhs)
    max_disc = max(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in keys)
    lhs_total = sum(lhs.values())
    rhs_total = sum(rhs.values())
    tol = 1e-10
    stats = {
        "max_discrepancy": max_disc,
        "prefixes": len(keys),
        "lhs_total": lhs_total,
        "rhs_total": rhs_total,
    }
    return ExperimentReport(
        name="absolute_continuity_check",
        parameters={"family": law.family, "n": n, "a": a},
        statistics=stats,
        tolerances={"max_discrepancy": tol},
        passed=bool(max_disc <= tol and abs(rhs_total - 1.0) <= tol),
        wall_time_s=_time.time() - t0,
    )


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)
