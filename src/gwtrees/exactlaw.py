"""Exact finite-n probability computations for the left-continuous walk.

The walk W has i.i.d. steps nu(k) = mu(k+1), k >= -1, so it moves down by at
most 1 per step.  That skip-free structure gives two workhorses:

* Kemperman's formula P[zeta_j = n] = (j/n) P[W_n = -j], linking hitting times
  of -j to plain walk marginals (the hitting-time theorem; van der Hofstad &
  Keane 2008, Amer. Math. Monthly 115, give a short proof).  It also advances
  the killed walk (meander) a block of steps per convolution: the mass that
  first leaves [0, inf) at each step of the block is read off W_s tables, and
  its free continuation from -1 is subtracted; the mass killed at step t is
  P[zeta = t].  The W_1..W_J tables of a block are the rows of one matrix, so
  the continuations of all the block's steps are one matrix product.  The same
  block, run backward on the probability of hitting -1 within t steps, is a
  correlation with no ceiling and gives phi*, with its corrections again one
  product;
* ceiling protection: when building the law of W_n by convolution, any mass
  clipped above ``hi + (n - m)`` at an intermediate step m can never return
  below ``hi`` within the remaining n - m steps, so the final table is exact on
  [-n, hi] no matter how heavy the step tail is.  The clipped mass is tracked
  in ``truncated_mass``.  ``_advance`` clips every such ceiling: binary
  powering, the block tables and the killed walk's free step all go through it.

"Exact" means that no mass is lost on the protected window.  A convolution of
tables of sizes a and b is summed directly iff a * b <= DIRECT_COST * (a + b)
and otherwise runs on a real FFT, whose rounding is absolute (up to 2.5e-16 on
a theta = 1.5 W_512 table, against direct summation): smaller entries have no
relative accuracy, and trailing entries below the rounding bound are trimmed
as noise.

Total-progeny laws are computed along two independent routes (the killed
walk's per-step loss, and the branching recursion through the generating
function, in closed form for geometric laws) and cross-checked; hitting
probabilities phi_n(j) = P[zeta_j = n] for all j are read off one
``walk_pmf(law, n, 0)`` table, and
phi*_n(j) = P[zeta_j >= n] for all j come from n/32 block convolutions
(``MEANDER_BLOCK`` steps each, as in the killed walk).  Walk, progeny and meander
tables share one type, ``PmfTable``.  Every function takes the ``OffspringLaw``
(``_step_table`` applies the shift).

One retention rule holds for every table: each law keeps its latest table of
each kind in its own ``OffspringLaw.tables``, one key per kind, so the tables
go with the law.  The kinds kept here are ``"phi_star"``, the profile of its
last p; ``"progeny"``, the recursion (carried on for a larger n, read as a
prefix for a smaller one); and ``"blocks"``, the W_1..W_32 block set of the
widest top so far (read by a narrower top too, such as phi* after the meander
of the same absolute-continuity step).  One block set is held across all laws:
building one drops every other law's.  W_n tables and the killed walk keep
nothing: each ``walk_pmf`` call builds its table, and each meander walks from
step 0.  No kept value refers to its law.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .codings import Tree
from .offspring import OffspringLaw

__all__ = [
    "PmfTable",
    "ExactLawError",
    "walk_pmf",
    "progeny_pmf",
    "phi",
    "phi_star",
    "discrete_ratio_window",
    "enumerate_conditioned",
    "progeny_rho",
    "meander_pmf",
    "conditioned_walk_marginal",
]

MASS_TOL = 1e-12
MEANDER_BLOCK = 32  # walk steps per block of meander_pmf and of the phi* recursion
MAX_ENUMERATED = 250_000  # trees enumerate_conditioned may list
DIRECT_COST = 256  # _conv sums directly iff a.size * b.size <= DIRECT_COST * (a.size + b.size)
NOISE = 8.0 * np.finfo(float).eps  # _conv trims trailing entries under NOISE |a|_2 |b|_2


class ExactLawError(RuntimeError):
    """Truncation budget exceeded or a cross-check between exact routes failed."""


@dataclass(frozen=True, eq=False)
class PmfTable:
    """Finite-support (sub-)pmf with its smallest represented value and clipped mass.

    Entries at values <= ``exact_hi`` lost no mass to clipping but carry an
    absolute FFT rounding error of order 1e-16; values above may have lost
    mass to ceiling clipping (tracked in truncated_mass).  Walk tables book the
    mass clipped above their ceilings, rounding excluded; progeny tables book
    1 - sum, the mass above n_max; a killed walk's (meander's) defect
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
    transform length and b's norm, for loops whose kernel b is fixed; a table
    convolved with itself (``a is b``) is transformed once.

    One cost rule picks the branch: direct summation costs a.size * b.size
    multiply-adds, the FFT a multiple of a.size + b.size, so the sum is direct
    iff a.size * b.size <= DIRECT_COST * (a.size + b.size) (always when either
    table has at most DIRECT_COST entries).

    The FFT branch's rounding is absolute, about EPS * |a|_2 * |b|_2 per entry:
    negative noise is clipped at 0 and trailing entries under NOISE times that
    scale are trimmed, so noise neither counts as mass nor widens later
    convolutions.
    """
    if a.size * b.size <= DIRECT_COST * (a.size + b.size):
        return np.convolve(a, b)
    size = a.size + b.size - 1
    L = _fast_len(size)
    if memo is None:
        memo = {}
    if memo.get("L") != L:
        memo.update(L=L, spectrum=np.fft.rfft(b, L), norm=math.sqrt(float(b @ b)))
    fb = memo["spectrum"]
    fa = fb if a is b else np.fft.rfft(a, L)
    out = np.fft.irfft(fa * fb, L)[:size]
    np.maximum(out, 0.0, out=out)
    a_norm = memo["norm"] if a is b else math.sqrt(float(a @ a))
    above = out[::-1] > NOISE * a_norm * memo["norm"]
    return out[: out.size - int(np.argmax(above))] if above.any() else out[:0]


def _advance(
    off: int, arr: np.ndarray, k_off: int, kernel: np.ndarray, ceiling: int,
    memo: Optional[dict] = None,
) -> Tuple[int, np.ndarray, float]:
    """Table of X + Y for X ~ (off, arr), Y ~ (k_off, kernel), clipped above ``ceiling``,
    and the mass clipped."""
    out = _conv(arr, kernel, memo)
    keep = ceiling - (off + k_off) + 1
    if keep <= 0:
        raise ExactLawError("ceiling clipped the entire table")
    return off + k_off, out[:keep], float(out[keep:].sum())


def _step_table(law: OffspringLaw, hi: int) -> Tuple[int, np.ndarray]:
    """nu(k) = mu(k+1) on [-1, min(hi, cap)], negligible analytic tail trimmed.

    The trim threshold 1e-18 keeps the cumulative bookkeeping error of an
    n-step build below ~n * 1e-18, far inside the 1e-12 mass budget; heavy
    tails (no usable cap) are kept at full width hi for pointwise exactness.
    """
    cap = law.support_cap(1e-18) - 1
    return -1, law.probabilities(min(hi, max(cap, 1)) + 1)


def walk_pmf(law: OffspringLaw, n: int, exact_hi: Optional[int] = None) -> PmfTable:
    """Exact law of W_n = sum of n i.i.d. nu-steps, exact on [-n, exact_hi], by
    binary-decomposition convolution.

    With ``exact_hi=None`` the full support [-n, K*n] is built when the step law
    has a usable support cap K, otherwise exact_hi defaults to a bulk window of
    ~64 * n^(1/theta).  Intermediate m-step tables are clipped at
    exact_hi + (n - m); the walk cannot descend more than n - m in the remaining
    steps, so clipped mass never contaminates the protected window.  Each table
    carries the mass clipped from it: the step law's tail above the step table,
    and what every ceiling cut off.  X + Y lacks 1 - (1 - lost_X)(1 - lost_Y)
    plus its own clip, so the FFT's rounding of a table's total, which every
    squaring doubles, is not booked as truncation.  Nor are the entries ``_conv``
    trims as noise: on light tails their sum is clipped-at-0 noise, on heavy ones
    it also holds real mass (2e-9 beside 3.7e-4 clipped at theta = 1.5,
    n = 16384).  Each call builds its table; nothing is kept on the law.
    """
    if n < 1:
        raise ExactLawError("n must be >= 1")
    if exact_hi is None:
        cap = law.support_cap(1e-18) - 1  # of nu
        if cap * n <= 1 << 22:
            exact_hi = cap * n
        else:
            exact_hi = int(64.0 * n ** (1.0 / law.theta)) + 1
    if exact_hi < -n:
        raise ExactLawError("exact_hi below the walk's minimum")
    pw_off, pw = _step_table(law, exact_hi + (n - 1))
    pw_lost = law.tail_mass(pw.size - 1)  # mu above the table's top mu(pw.size - 1)
    acc_off, acc, acc_lost, acc_m, pw_m = None, None, 0.0, 0, 1
    bits = n
    while bits:
        if bits & 1:
            if acc is None:
                acc_off, acc, acc_lost, acc_m = pw_off, pw, pw_lost, pw_m
            else:
                acc_off, acc, clipped = _advance(
                    acc_off, acc, pw_off, pw, exact_hi + (n - acc_m - pw_m)
                )
                acc_lost += pw_lost - acc_lost * pw_lost + clipped
                acc_m += pw_m
        bits >>= 1
        if bits:
            pw_off, pw, clipped = _advance(pw_off, pw, pw_off, pw, exact_hi + (n - 2 * pw_m))
            pw_lost += pw_lost - pw_lost * pw_lost + clipped
            pw_m *= 2
    return PmfTable(acc_off, acc, acc_lost, exact_hi)


@dataclass(frozen=True, eq=False)
class _BlockSet:
    """W_1..W_J, J = MEANDER_BLOCK, each exact on [-s, top + 1], as one block
    matrix, with each table's length and the first-passage matrix of a block.

    Row J - s of ``rows`` holds P[W_s = k] at column k + J, and W_s's table is
    its first ``lens[s]`` entries from column J - s on (W_0, the point mass at
    0, has no row).  So the tables of W_q, q = r - 1 .. 1, on k >= 1 are the
    contiguous rows J - r + 1 .. J - 1 from column J + 1 on, and one matrix
    product applies a block's every per-step correction.  W_s spans at most s
    (step width) + 1 values, so the matrix is as wide as W_J can be, not as
    ``top``.  ``kem[s - 1, x] = (x+1)/s P[W_s = -(x+1)]`` is the probability
    that the walk from x first hits -1 at step s (Kemperman).  Steps beyond
    top + J and mass above the moving ceiling top + 1 + (J - s) cannot reach
    [-s, top + 1].
    """

    top: int
    rows: np.ndarray
    lens: List[int]
    kem: np.ndarray


def _build_blocks(law: OffspringLaw, top: int) -> _BlockSet:
    J = MEANDER_BLOCK
    off, step = _step_table(law, top + J)
    rows = np.zeros((J, J + 1 + min(J * (step.size - 2), top + J)))
    prev, lens, memo = np.ones(1), [1], {}
    for s in range(1, J + 1):
        prev = _advance(1 - s, prev, off, step, top + 1 + J - s, memo)[1]
        rows[J - s, J - s : J - s + prev.size] = prev
        lens.append(prev.size)
    ks = np.arange(1, J + 1)
    kem = rows[::-1, J - 1 :: -1] * ks / ks[:, None]  # W_s at k = -1, -2, ..
    return _BlockSet(top, rows, lens, kem)


def _block_tables(law: OffspringLaw, top: int) -> _BlockSet:
    """The law's block set, each W_s exact at least on [-s, top + 1]; the one
    reader of its ``"blocks"`` table.  The law keeps the set of the widest top
    so far: a narrower top reads it (cutting rows at its own table length
    top + J + 2, as phi* and the killed walk do), and a wider top drops it
    before building its own.  Building a set drops every other law's too, so
    no two sets are held at once.
    """
    global _blocks_law
    tables = law.tables
    if "blocks" not in tables or tables["blocks"].top < top:
        held = _blocks_law and _blocks_law()
        if held is not None:  # the narrower set, or another law's, goes first
            held.tables.pop("blocks", None)
        tables["blocks"] = _build_blocks(law, top)
        _blocks_law = weakref.ref(law)
    return tables["blocks"]


_blocks_law: Optional[weakref.ref] = None  # the law whose tables hold the one block set


# -- total progeny -----------------------------------------------------------------


class _ProgenyRecursion:
    """P[zeta = p] for p = 0..n by the branching (generating-function) route,
    resumable: ``extend(law, n)`` carries the recursion on from where it stopped.

    Solves R(z) = z f(R(z)) coefficient by coefficient, per family, from
    rho(1) = mu(0).  Geometric laws have the closed form of
    R = (1-p) z + p R^2, rho(m) = Catalan(m-1) p^(m-1) (1-p)^m, taken as one
    product of the ratios rho(m+1)/rho(m) = 2p(1-p)(2m-1)/(m+1); the stable
    family goes through the series A = (1-R)^theta, and explicit laws through
    incremental powers of R.  No walk table is consulted, so this is
    independent of Kemperman.
    Each coefficient reads only earlier ones (the geometric product is redone
    from rho(1) on every extension), so a resumed table is bit-identical to a
    fresh run; ``rho`` is read-only and each extension replaces it by a longer
    copy, so prefixes already handed out never change.  ``steps`` counts the
    coefficients rho(2), rho(3), ... added over all extensions.
    """

    def __init__(self, law: OffspringLaw):
        self.steps = 0
        self.rho = np.array([0.0, law.probs[0]])  # rho(1) = mu(0)
        self.rho.flags.writeable = False
        self.aux = None  # geometric: the closed form needs nothing more
        if law.family == "stable":
            self.aux = np.array([[1.0, 0.0], self.rho])  # A, and j rho(j)
        elif law.family == "explicit":
            self.aux = np.zeros((law.probs.size, 2))  # aux[k, m] = [z^m] R^k
            self.aux[0, 0] = 1.0

    def extend(self, law: OffspringLaw, n_max: int) -> None:
        start = self.rho.size - 1
        if n_max <= start:
            return
        K = law.probs.size - 1
        if law.family == "explicit" and n_max * n_max * max(K, 1) > 1 << 31:
            raise ExactLawError(f"explicit-law progeny recursion too large: n = {n_max} and "
                                f"K = {K} exceed the bound n^2 max(K, 1) <= 2^31")
        rho = _grown(self.rho, n_max + 1)
        if law.family == "geometric":
            p = float(law.param)
            m = np.arange(1, n_max)
            rho[1:] = np.cumprod(np.append(rho[1], 2.0 * p * (1.0 - p) * (2 * m - 1) / (m + 1)))
        elif law.family == "stable":
            th = law.theta
            A, jrho = self.aux = _grown(self.aux, n_max + 1)
            # np.dot per sum: a matrix product of rho and j rho drifted to 1.1e-13 relative
            # error at rho(4096), theta = 1.5, against 6e-15 for np.dot (long-double sums)
            for m in range(start, n_max):
                rev = A[m - 1 :: -1]
                s0 = float(np.dot(rho[1 : m + 1], rev))
                s1 = float(np.dot(jrho[1 : m + 1], rev))
                A[m] = (m * s0 - (1.0 + th) * s1) / m
                rho[m + 1] = rho[m] + A[m] / th if m > 1 else 0.0  # rho(2) = mu(0) mu(1) = 0
                jrho[m + 1] = (m + 1) * rho[m + 1]
        else:  # rho(m+1) = sum_k mu(k) P_k[m], with P_k = R^k built incrementally
            mu = law.probs
            P = self.aux = _grown(self.aux, n_max + 1)
            for m in range(start, n_max):
                kq = min(K, m)
                for k in range(1, kq + 1):
                    # [z^m] R^k = sum_i rho(i) [z^(m-i)] R^(k-1); zero entries pad the dot
                    P[k, m] = float(np.dot(rho[1 : m + 1], P[k - 1, m - 1 :: -1]))
                rho[m + 1] = float(mu[1 : kq + 1] @ P[1 : kq + 1, m])
        self.steps += n_max - start
        rho.flags.writeable = False
        self.rho = rho


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """A writable copy of arr, zero-padded along its last axis to ``size`` entries."""
    out = np.zeros(arr.shape[:-1] + (size,))
    out[..., : arr.shape[-1]] = arr
    return out


def progeny_rho(law: OffspringLaw, n_max: int) -> np.ndarray:
    """P[zeta = p], p = 0..n_max, by the branching recursion (read-only array).

    One recursion table per law serves every n_max: a larger request resumes
    it, a smaller one reads a prefix; either way the values are bit-identical to
    a fresh recursion to n_max.
    """
    if n_max < 0:
        raise ExactLawError("n_max must be >= 0")
    progeny = law.tables.get("progeny")
    if progeny is None:
        progeny = law.tables["progeny"] = _ProgenyRecursion(law)
    progeny.extend(law, n_max)
    return progeny.rho[: n_max + 1]


def progeny_pmf(law: OffspringLaw, n_max: int) -> PmfTable:
    """Exact law of the total progeny on {1..n_max}.

    Computed twice, as the mass the killed walk from 0 loses at each step (read
    off walk tables by Kemperman, see ``_killed_walk``) and by the branching
    recursion; fails loudly if the two routes disagree beyond MASS_TOL.  An explicit
    law past the recursion's n^2 K <= 2^31 bound is refused before either route runs.
    """
    if n_max < 1:
        raise ExactLawError("n_max must be >= 1")
    rec = progeny_rho(law, n_max)
    # the ceiling n_max - t at step t clips only mass that cannot reach -1 by n_max
    kem = np.append(0.0, _killed_walk(law, n_max, 0)[2])
    gap = float(np.max(np.abs(kem - rec)))
    if gap > MASS_TOL:
        raise ExactLawError(f"progeny routes disagree by {gap:.3e} (tolerance {MASS_TOL:.1e})")
    arr = rec[1:].copy()
    return PmfTable(1, arr, max(0.0, 1.0 - float(arr.sum())), n_max)


# -- hitting-time probabilities ------------------------------------------------------


def phi(law: OffspringLaw, n: int, j):
    """phi_n(j) = P[zeta_j = n] = (j/n) P[W_n = -j] (Kemperman), for an int j or an
    integer array of j; one W_n table, exact on [-n, 0], serves every j of a call."""
    js = np.asarray(j)
    if n < 1 or np.any(js < 1):
        raise ExactLawError("phi needs j >= 1 and n >= 1")
    out = js / n * walk_pmf(law, n, 0).probs(-js)
    return float(out) if js.ndim == 0 else out


def phi_star(law: OffspringLaw, n: int, j):
    """phi*_n(j) = P[zeta_j >= n] for an int j or an integer array of j; 1 for j >= n.
    The law keeps the profile of its last n."""
    js = np.asarray(j)
    if n < 1 or np.any(js < 1):
        raise ExactLawError("phi_star needs j >= 1 and n >= 1")
    profile = law.tables.get("phi_star")
    if profile is None or profile.size != n:  # the profile of p has p entries
        profile = law.tables["phi_star"] = _phi_star_profile(law, n)
    out = profile[np.minimum(js, n) - 1]
    return float(out) if js.ndim == 0 else out


def _phi_star_profile(law: OffspringLaw, p: int) -> np.ndarray:
    """phi*_p(j) = 1 - d_{p-1}(j-1) for j = 1..p (read-only), where
    d_t(x) = P[the walk from x hits -1 within t steps] lives on [0, t), d_0 = 0.

    A block of r <= MEANDER_BLOCK steps is one correlation with W_r, split at the
    first passage tau of -1:  d_{t+r}(x) = K_r(x) + sum_k P[W_r = k] d_t(x+k)
    - sum_{s<r} P_x[tau = s] g_s  (d_t taken 0 below 0), with
    P_x[tau = s] = (x+1)/s P[W_s = -(x+1)], K_r(x) = sum_{s<=r} P_x[tau = s], and
    g_s = sum_{k>=1} P[W_{r-s} = k] d_t(k-1) the free continuation from -1 that
    the correlation wrongly credits to a path already absorbed at step s.
    Every g_s of a block is one product of block-matrix rows with d_t (see
    ``_BlockSet``).
    """
    d = np.zeros(0)
    if p > 1:
        J = MEANDER_BLOCK
        blocks = _block_tables(law, p - 2)  # W_s exact on [-s, p - 1]
        rows, kem = blocks.rows, blocks.kem
        lens = [min(size, p + J) for size in blocks.lens]  # this top's lengths top + J + 2
        hit = np.cumsum(kem, axis=0)  # hit[r - 1, x] = K_r(x)
        rev, memo = rows[0, lens[J] - 1 :: -1].copy(), {}  # fixed kernel: the memo stays valid
        r = min(J, p - 1)
        d = hit[r - 1, :r].copy()
        while d.size < p - 1:
            t = d.size
            r = min(J, p - 1 - t)
            w = rows[J - r, J - r : J - r + lens[r]]
            full = _conv(d, rev, memo) if r == J else _conv(d, w[::-1])
            # sum_k P[W_r = k] d_t(x + k) sits at index x + w.size - 1 - r
            free = full[w.size - 1 - r : w.size - 1 + t]
            nxt = np.zeros(t + r)
            nxt[: free.size] = free
            cont = rows[J - r + 1 : J, J + 1 : J + 1 + t]  # P[W_q = k], k >= 1, q = r - 1 .. 1
            g = cont @ d[: cont.shape[1]]  # g_s with q = r - s
            nxt[:r] += hit[r - 1, :r] - g @ kem[: r - 1, :r]
            d = np.clip(nxt, 0.0, 1.0, out=nxt)
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
    [0, ...] (exact up to exact_hi), the alive mass clipped at the ceiling, and
    the mass killed at each step t = 1..m, which is P[zeta = t].

    The ceiling starts at exact_hi + m and falls by one per step, so the clipped
    mass lives strictly above the exact range.  Blocks of r <= MEANDER_BLOCK
    steps advance the killed table v at once: a path from x first leaves
    [0, inf) at step s with probability (x+1)/s P[W_s = -(x+1)] (Kemperman), and
    then sits at -1, so
    v'(k) = sum_x v(x) P[W_r = k-x] - sum_{s<r} h_s P[W_{r-s} = k+1] for k >= 0,
    with h_s = sum_{x<s} v(x) (x+1)/s P[W_s = -(x+1)] the mass killed at step s.
    The subtracted sum is the vector h times rows of the block matrix (see
    ``_BlockSet``), one matrix-vector product per block.  Once no alive
    entry is left below the ceiling (the FFT trims what it leaves of a walk that
    drifts up), later steps kill nothing and the table stays empty.  The walk
    reads the law's block set, a wider one too, with rows cut at this ceiling's
    table length top + J + 2.
    """
    J = MEANDER_BLOCK
    top = exact_hi + m  # ceiling at step 0
    blocks = _block_tables(law, top)
    rows, kem = blocks.rows, blocks.kem
    lens = [min(size, top + J + 2) for size in blocks.lens]
    v, clipped, t, memo = np.ones(1), 0.0, 0, {}  # v: the killed table on [0, ...]
    killed = np.zeros(m)
    while t < m and v.size:
        r = min(J, m - t)
        t += r
        kernel = rows[J - r, J - r : J - r + lens[r]]
        free = _advance(0, v, -r, kernel, top - t, memo if r == J else None)[1][r:]
        h = kem[:r, : v.size] @ v[:J]  # mass killed at each step of the block
        killed[t - r : t] = h
        cont = h[: r - 1] @ rows[J - r + 1 : J, J + 1 : J + 1 + free.size]  # P[W_{r-s} = k + 1]
        free[: cont.size] -= cont
        np.maximum(free, 0.0, out=free)
        # alive mass not kept: above the ceiling, or jumps beyond the step table
        clipped += (float(v.sum()) - float(h.sum())) - float(free.sum())
        v = free
    return v, clipped, killed


def meander_pmf(law: OffspringLaw, m: int, exact_hi: int) -> PmfTable:
    """Sub-probability law of W_m on {W stays >= 0 up to m}, exact on [0, exact_hi].

    Mass clipped at the moving ceiling exact_hi + m - t is returned in
    ``truncated_mass``; the table's total plus truncated_mass equals
    P[zeta_1 > m].  See ``_killed_walk``.
    """
    if m < 1 or exact_hi < 0:  # the meander lives on [0, inf)
        raise ExactLawError(f"the meander needs m >= 1 and exact_hi >= 0, got {m}, {exact_hi}")
    v, clipped, _ = _killed_walk(law, m, exact_hi)  # v ends under the last ceiling, exact_hi
    masses = np.zeros(exact_hi + 1)  # spans [0, exact_hi]
    masses[: v.size] = v
    return PmfTable(0, masses, max(0.0, clipped), exact_hi)


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


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)
