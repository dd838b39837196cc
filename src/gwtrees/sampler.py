"""Exact samplers for GW trees, free and conditioned on total progeny.

The conditioned sampler is the classical three-step pipeline: draw n i.i.d.
steps of the shifted law conditioned on total sum -1, rotate the block at the
first minimum of its partial sums (cycle lemma: exactly one rotation is a
first-passage path), and read the tree off it: child count = step + 1.

Conditioning on the sum is done by block rejection on the critical tilt of
mu.  The tilt mu(k) lam^k / f(lam) multiplies the probability of every block
with sum -1, hence of every tree with n vertices, by the same factor
lam^(n-1) / f(lam)^n, so the conditioned law is unchanged (Kennedy 1975); but
P[W_n = -1] decays like a power of n on a critical law and exponentially on
any other.  A critical law is its own tilt.  A law supported in {0,1} has no
tilt and needs none: each block of n - 1 zeros and one -1 has probability
mu(0) mu(1)^(n-1), so one draw places the -1.  ``conditioned_increments``
decides all this, and refuses a size with P[zeta = n] = 0 before any draw (see
``OffspringLaw.child_count_sums``); ``sample_conditioned`` only rotates its block.

A block of n i.i.d. mu-draws is drawn as a head and a rest.  The head is
{0..K}, with K the smallest value such that n P[mu > K] <= HEAD_TARGET, and
p = P[mu > K]; one multinomial row gives the block's count c of each head
value and the number m of rest values, i.i.d. with law R_1(k) = mu(k) / p for
k > K.  Step counts are a sufficient statistic for the sum, so a row is
expanded to a shuffled sequence only once it is kept, and a row costs
O(K + m) instead of O(n).

One rest value per row is conditioned exactly (the degree-count multinomial
with rejection of Devroye 2012, SIAM J. Comput. 41, with its last step
forced).  Let M = max R_1 over K < k <= top, b0 = (1 - p)^n = P[m = 0] and
s = b0 (1 - M) / (b0 + M (1 - b0)).  Each row then goes through three steps:

* swap: with probability s, a row with m >= 1 is replaced by a fresh
  head-only row, multinomial(n, mu(0..K) / (1 - p)).  The row's m then has
  law q(m) proportional to Binom(n, p)(m) w(m), with w(0) = 1 and w(m) = M
  for m >= 1;
* a row with m >= 1 draws m - 1 rest values and forces the last one to the
  value k that brings the block's sum to -1; it is kept iff u M < R_1(k),
  with u uniform and R_1(k) = 0 unless K < k <= top;
* a row with m = 0 is kept iff its head sums to -1.

This is exact.  Each row is an i.i.d. (proposal, coin) pair, so the first kept
row has the law of one row conditioned on being kept.  A kept row with m >= 1,
head counts c and rest values r_1..r_m (r_m forced) has probability
q(m) Mult(n - m)(c) R_1(r_1)..R_1(r_(m-1)) R_1(r_m) / M; a kept row with m = 0
has probability q(0) Mult(n)(c), on {sum = -1}.  Both are proportional to
Binom(n, p)(m) Mult(c) prod R_1(r_i) on {sum = -1}, which is the block's law of
counts and rest values given that it sums to -1; the block given these is a
uniform shuffle.  Rows are drawn BATCH per multinomial call, with one uniform
per row, then the drawn rest values.  A row's uniform c serves twice: c < s
swaps it, and otherwise u = (c - s) / (1 - s).  A swapped row's head-only row
is drawn only once no earlier row of its batch was kept, and the rows after
the kept one are discarded unread.  M is of order 1/K on a stable law, and
the block's sum spreads on the same scale B_n, so a tree costs O(1) rows as
n grows: 1.4 batches of 64 on average at theta = 1.5, n = 1e4, and 2 at 1e6.

Both samplers read mu from a step sampler for blocks of n: a survival table of
mu on 0..top + 1, with top = n - 1 or the law's last value of positive tail if
smaller, inverted for all quantiles at once.  It costs 8 bytes per value, and
it is exact: no tree of n vertices has a vertex of n or more children, so each
draw past top, read as top + 1 >= n, rejects its block or ends ``sample_gw``.
A law keeps the step sampler of its last n, and its critical tilt unless it is
its own, in ``OffspringLaw.tables``.  Sizes with n - 1 > ``VALUE_CEIL`` are refused.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional

import numpy as np

from .codings import LukasiewiczPath, Tree
from .offspring import CRIT_TOL, VALUE_CEIL, OffspringLaw, tilt_to_critical

__all__ = [
    "derive_rng",
    "sample_gw",
    "conditioned_increments",
    "cycle_shift",
    "sample_conditioned",
    "SamplerError",
]

HEAD_TARGET = 8  # expected rest draws per block: n P[mu > K] at the head's edge K
BATCH = 64  # blocks per multinomial call
_BLOCK = 1 << 16  # table entries per block when the build scans mu
_ROWS = np.arange(BATCH)


class SamplerError(RuntimeError):
    pass


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, replicate path); independent of threading."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *path]))


class _StepSampler:
    """mu as a survival table on 0..top + 1, split for blocks of n.

    The one step sampler of both samplers: ``draws`` inverts mu conditioned on
    {value >= kmin} for a vector of uniforms.  ``sample_gw`` uses it with
    kmin = 0; the conditioned route draws the head counts with one multinomial
    over ``pvals`` (mu(0..head), then P[mu > head]), a swapped row's over
    ``head_pvals``, and the rest values with kmin = head + 1, and reads M
    (``rest_max``) and the swap probability s (``swap``), both set here.  Only
    -P[mu >= k], ascending for searchsorted, is kept n long.
    """

    def __init__(self, law: OffspringLaw, n: int):
        self.n = n
        self.top = n - 1 if law.tail_mass(n - 1) > 0 else law.support_cap(0.0)
        neg_above = law.probabilities(self.top + 1)
        neg_above[-1] = law.tail_mass(self.top)  # mu(0..top), then P[mu > top]
        np.cumsum(neg_above[::-1], out=neg_above[::-1])  # P[mu >= k], summed from the top down
        np.negative(neg_above, out=neg_above)
        # the smallest K with n P[mu > K] <= HEAD_TARGET, searched without an n-sized
        # temporary; K <= top, as n P[mu > n - 1] <= E[mu] <= 1 (Markov)
        self.head = bisect_left(neg_above, True, 1, key=lambda v: n * v >= -HEAD_TARGET) - 1
        head_probs = law.probabilities(self.head)
        p_rest = -neg_above[self.head + 1]  # P[mu > K]
        pvals = np.append(head_probs, p_rest)
        self.pvals = pvals / pvals.sum()
        self.head_pvals = head_probs / head_probs.sum()  # mu on the head alone
        self.values = np.append(np.arange(self.head + 1), 0)  # mu on the head; 0 on the rest count
        self._neg_above = neg_above
        # M = max R_1 (see the module docstring), with mu(k) read off the table for
        # K < k <= top in blocks, so that no temporary is n long
        mu_max = max((np.diff(neg_above[i : i + _BLOCK + 1]).max()
                      for i in range(self.head + 1, self.top + 1, _BLOCK)), default=0.0)
        self.rest_max = mu_max / p_rest if p_rest else 0.0
        b0 = math.exp(n * math.log1p(-self.pvals[-1]))  # P[m = 0]
        # the swap probability s = (pi0 - b0) / (1 - b0), pi0 = b0 / (b0 + M (1 - b0))
        self.swap = b0 * (1.0 - self.rest_max) / (b0 + self.rest_max * (1.0 - b0))
        # a row's uniform c swaps it when c < s, and otherwise keeps the forced value k
        # iff (c - s) / (1 - s) < mu(k) / mu_max
        self._coin_scale = (1.0 - self.swap) / mu_max if mu_max else 0.0
        for arr in (self.pvals, self.head_pvals, self.values, self._neg_above):
            arr.flags.writeable = False

    def draws(self, us: np.ndarray, kmin: int) -> np.ndarray:
        """Values of mu conditioned on {value >= kmin} at uniforms us in [0, 1).

        The value at u is the smallest k >= kmin with P[mu > k] < (1 - u) P[mu >= kmin],
        one table search; a u in the last bin reads top + 1.
        """
        mass = -float(self._neg_above[kmin])
        neg_target = us * mass
        neg_target -= mass
        np.minimum(neg_target, -1e-300, out=neg_target)  # u near 1 stays off an empty last bin
        return kmin + self._neg_above[kmin + 1 :].searchsorted(neg_target, side="right")


def _step_sampler(law: OffspringLaw, n: int) -> _StepSampler:
    """The law's step sampler for blocks of n, kept for its last n."""
    steps = law.tables.get("steps")
    if steps is None or steps.n != n:
        steps = law.tables["steps"] = _StepSampler(law, n)
    return steps


# -- unconditioned sampling ------------------------------------------------------


def sample_gw(law: OffspringLaw, size_cap: int, rng: np.random.Generator) -> Optional[Tree]:
    """One GW tree, or None when the tree exceeds size_cap vertices.

    The preorder degree sequence is generated chunk-wise; the tree is complete
    at the first index where 1 + sum(c_i - 1) hits zero (first passage of the
    Lukasiewicz path).  Each vertex closes at most one open slot, so drawing
    stops, with None, once the open slots outnumber the vertices left under
    size_cap.  Deterministic given the state of rng.
    """
    if size_cap < 1:
        raise SamplerError("size_cap must be >= 1")
    if size_cap - 1 > VALUE_CEIL:  # the largest offspring value served
        raise SamplerError(f"size_cap - 1 = {size_cap - 1} exceeds VALUE_CEIL = {VALUE_CEIL}")
    if law.mean > 1.0 + CRIT_TOL:
        raise SamplerError("sample_gw needs a (sub)critical law; tilt first")
    steps = _step_sampler(law, size_cap)
    chunks: List[np.ndarray] = []
    open_slots = 1
    drawn = 0
    chunk_size = 64
    while open_slots <= size_cap - drawn:
        chunk = steps.draws(rng.random(min(chunk_size, size_cap - drawn)), 0)
        partial = open_slots + np.cumsum(chunk - 1)
        hit = np.flatnonzero(partial == 0)
        if hit.size:
            chunks.append(chunk[: hit[0] + 1])
            return Tree(np.concatenate(chunks))
        chunks.append(chunk)
        open_slots = int(partial[-1])
        drawn += chunk.size
        chunk_size = min(2 * chunk_size, 1 << 20)
    return None


# -- conditioned increments ---------------------------------------------------------


def _critical_tilt(law: OffspringLaw) -> OffspringLaw:
    """``tilt_to_critical``, kept on the law unless the law is critical and its own tilt."""
    if not law.is_critical and "tilt" not in law.tables:
        law.tables["tilt"] = tilt_to_critical(law)
    return law.tables.get("tilt", law)


def conditioned_increments(law: OffspringLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. steps nu(k) = mu(k+1) conditioned on summing to -1 (exact distribution).

    The one place a request is decided (see the module docstring).  The size rule
    reads the law as passed, as the tilt keeps its support.
    """
    if n < 1:
        raise SamplerError("n must be >= 1")
    if n - 1 > VALUE_CEIL:  # the largest offspring value served
        raise SamplerError(f"n - 1 = {n - 1} exceeds VALUE_CEIL = {VALUE_CEIL}")
    if not law.size_possible(n):
        raise SamplerError(f"P[zeta = {n}] = 0: n - 1 is no sum of child counts "
                           f"(span {law.child_count_sums[0]})")
    if n == 1:
        return np.array([-1], dtype=np.int64)
    if law.probs.size == 2:  # support {0,1}; the closed forms always store more
        seq = np.zeros(n, dtype=np.int64)
        seq[rng.integers(n)] = -1
        return seq
    law = _critical_tilt(law)
    steps = _step_sampler(law, n)
    kmin = steps.head + 1
    rest_above = steps._neg_above[kmin:]  # -P[mu >= k] for k = K + 1..top + 1
    max_attempts = 50 * n + 100_000  # expected ~ B_n / p1(0), so huge slack

    for _ in range(-(-max_attempts // BATCH)):
        counts = rng.multinomial(n, steps.pvals, size=BATCH)
        n_rest = counts[:, -1]
        live = n_rest > 0
        drawn = n_rest - live  # the last rest value of a row is forced, not drawn
        us = rng.random(BATCH + drawn.sum())  # a coin per row, then the drawn rest values
        coins = us[:BATCH]
        rest = steps.draws(us[BATCH:], kmin)  # in row order
        sums = np.bincount(np.repeat(_ROWS, drawn), weights=rest, minlength=BATCH)
        # the sum of a row's n - 1 drawn mu-values (all n in a head-only row); float sums
        # of ints < 2^53 are exact
        drawn_sum = counts @ steps.values + sums.astype(np.int64)
        # the n mu-values sum to n - 1, so the forced one is k = n - 1 - drawn_sum, at k - kmin
        # in rest_above; mu(k) reads 0 for k <= K and past top, where both clipped reads agree
        at = (n - 1 - kmin) - drawn_sum
        mu = rest_above.take(at + 1, mode="clip") - rest_above.take(at, mode="clip")
        # candidates: head-only rows summing to n - 1, and rest rows whose coin swaps or keeps
        cand = np.where(live, coins < mu * steps._coin_scale + steps.swap, at == -kmin)
        for r in cand.nonzero()[0].tolist():
            if coins[r] < steps.swap and live[r]:  # swapped: a fresh head-only row, drawn only now
                heads = rng.multinomial(n, steps.head_pvals)
                if heads @ steps.values[:-1] != n - 1:
                    continue
                seq = np.repeat(steps.values[:-1], heads)
            else:  # the head values, then the rest count's placeholders
                seq = np.repeat(steps.values, counts[r])
                if live[r]:
                    end = sum(drawn[: r + 1].tolist())
                    seq[n - n_rest[r] : -1] = rest[end - drawn[r] : end]
                    seq[-1] = at[r] + kmin
            seq -= 1  # nu = mu - 1
            rng.shuffle(seq)
            return seq
    raise SamplerError(
        f"no block with sum -1 in {max_attempts} attempts (n={n}); "
        "the conditional event has vanishing probability"
    )


# -- cycle lemma ------------------------------------------------------------------


def _first_passage_rotation(increments: np.ndarray) -> np.ndarray:
    """The rotation of a sum -1 block that first hits -1 at its last step.

    For steps >= -1 summing to -1, exactly one of the n rotations does; it is
    the one starting right after the first running minimum.
    """
    inc = np.asarray(increments, dtype=np.int64)
    if inc.min() < -1:
        raise SamplerError("increments must be >= -1")
    partial = np.cumsum(inc)
    if partial[-1] != -1:
        raise SamplerError("increments must sum to -1")
    k = (int(np.argmin(partial)) + 1) % inc.size
    return np.concatenate([inc[k:], inc[:k]]) if k else inc


def cycle_shift(increments: np.ndarray) -> LukasiewiczPath:
    """The Lukasiewicz path of the first-passage rotation of a sum -1 block."""
    return LukasiewiczPath(np.concatenate([[0], np.cumsum(_first_passage_rotation(increments))]))


def sample_conditioned(law: OffspringLaw, n: int, rng: np.random.Generator) -> Tree:
    """One tree of GW_mu conditioned on {zeta = n}: ``conditioned_increments``, rotated."""
    return Tree(_first_passage_rotation(conditioned_increments(law, n, rng)) + 1)
