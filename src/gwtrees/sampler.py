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
``_child_count_sums``); ``sample_conditioned`` only rotates its block.

A block of n i.i.d. mu-draws is drawn as a head and a rest.  The head is
{0..K}, with K the smallest value such that n P[mu > K] <= HEAD_TARGET; one
multinomial row gives the block's count of each head value and the number m
of rest draws, which are then m i.i.d. draws of mu conditioned on > K.  Step
counts are a sufficient statistic for the sum, so a block is expanded to a
shuffled sequence only once it is accepted, and a rejected one costs
O(K + m) instead of O(n).  Attempts are drawn BATCH rows per multinomial call,
with one uniform draw for all the rows' rest values; the first row with sum
-1 is kept.  This is exact: the rows are i.i.d. blocks, the first success of
an i.i.d. sequence has the conditioned law, and the rows drawn after it are
discarded unread.

Both samplers read mu from one step sampler per (law, n): a survival table of
mu on 0..top + 1, with top = n - 1 or the law's last value of positive tail if
smaller, inverted for all quantiles at once.  It costs 8 bytes per value, and
it is exact: no tree of n vertices has a vertex of n or more children, so each
draw past top, read as top + 1 >= n, rejects its block or ends ``sample_gw``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .codings import LukasiewiczPath, Tree
from .offspring import OffspringLaw, tilt_to_critical

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


class SamplerError(RuntimeError):
    pass


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, replicate path); independent of threading."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *path]))


class _StepSampler:
    """mu as a survival table on 0..top + 1, split for blocks of n.

    The one step sampler of both samplers: ``draws`` inverts mu conditioned on
    {value >= kmin} for a vector of uniforms.  ``sample_gw`` uses it with
    kmin = 0; the rejection route draws the head counts with one multinomial
    over ``pvals`` (mu(0..head), then P[mu > head]) and the rest values with
    kmin = head + 1.  Only -P[mu >= k], ascending for searchsorted, is kept.
    """

    def __init__(self, law: OffspringLaw, n: int):
        self.top = n - 1 if law.tail_mass(n - 1) > 0 else law.support_cap(0.0)
        neg_above = law.probabilities(self.top + 1)
        neg_above[-1] = law.tail_mass(self.top)  # mu(0..top), then P[mu > top]
        np.cumsum(neg_above[::-1], out=neg_above[::-1])  # P[mu >= k], summed from the top down
        np.negative(neg_above, out=neg_above)
        # the smallest K with n P[mu > K] <= HEAD_TARGET, searched without an n-sized
        # temporary; K <= top, as n P[mu > n - 1] <= E[mu] <= 1 (Markov)
        self.head = bisect_left(neg_above, True, 1, key=lambda v: n * v >= -HEAD_TARGET) - 1
        pvals = np.append(law.probabilities(self.head), -neg_above[self.head + 1])
        self.pvals = pvals / pvals.sum()
        self.values = np.arange(-1, self.head, dtype=np.int64)  # nu = mu - 1 on the head
        self._neg_above = neg_above
        for arr in (self.pvals, self.values, self._neg_above):
            arr.flags.writeable = False

    def draws(self, us: np.ndarray, kmin: int) -> np.ndarray:
        """Values of mu conditioned on {value >= kmin} at uniforms us in [0, 1).

        The value at u is the smallest k >= kmin with P[mu > k] < (1 - u) P[mu >= kmin],
        one table search; a u in the last bin reads top + 1.
        """
        mass = -self._neg_above[kmin]
        target = np.maximum(mass - us * mass, 1e-300)  # u near 1 stays off an empty last bin
        return kmin + np.searchsorted(self._neg_above[kmin + 1 :], -target, side="right")


@lru_cache(maxsize=32)  # the law hashes by identity
def _step_sampler(law: OffspringLaw, n: int) -> _StepSampler:
    return _StepSampler(law, n)


@lru_cache(maxsize=32)  # the law hashes by identity
def _child_count_sums(law: OffspringLaw) -> Tuple[int, Tuple[bool, ...]]:
    """(span, sums): as mu(0) > 0, a tree with n vertices exists iff n - 1 is a sum of
    positive support points, i.e. n - 1 = span * m (span: their gcd) with sums[m], whose
    last entry stands for every larger m.  With s the least point over span, the table ends
    at its first run of s true entries, past which adding s reaches every m.  For the closed
    forms the stored prefix of probs, which holds 1, or 2 and 3, decides the table."""
    points = np.flatnonzero(law.probs[1:]) + 1
    if not points.size:  # support {0}: the single vertex is the only tree
        return 1, (True, False)
    span = int(np.gcd.reduce(points))
    points, s = points // span, int(points[0]) // span
    sums = np.arange(s) == 0  # the empty sum
    while not sums[-s:].all():  # a block of s entries reads only earlier ones
        prev = sums.size + np.arange(s) - points[points < sums.size + s, None]
        sums = np.append(sums, (sums[prev.clip(0)] & (prev >= 0)).any(axis=0))
    return span, tuple(sums.tolist())


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
    if law.mean > 1.0 + 1e-10:
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


# one tilted object per law (the law hashes by identity), so the caches keyed on it hit
_critical_tilt = lru_cache(maxsize=64)(tilt_to_critical)


def conditioned_increments(law: OffspringLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. steps nu(k) = mu(k+1) conditioned on summing to -1 (exact distribution).

    The one place a request is decided (see the module docstring).  The size rule
    reads the law as passed, as the tilt keeps its support.
    """
    if n < 1:
        raise SamplerError("n must be >= 1")
    span, sums = _child_count_sums(law)
    if (n - 1) % span or not sums[min((n - 1) // span, len(sums) - 1)]:
        raise SamplerError(f"P[zeta = {n}] = 0: n - 1 is no sum of child counts (span {span})")
    if n == 1:
        return np.array([-1], dtype=np.int64)
    if law.probs.size == 2:  # support {0,1}; the closed forms always store more
        seq = np.zeros(n, dtype=np.int64)
        seq[rng.integers(n)] = -1
        return seq
    law = _critical_tilt(law)
    steps = _step_sampler(law, n)
    kmin = steps.head + 1
    rows = np.arange(BATCH)
    max_attempts = 50 * n + 100_000  # expected ~ B_n / p1(0), so huge slack

    for _ in range(-(-max_attempts // BATCH)):
        counts = rng.multinomial(n, steps.pvals, size=BATCH)
        n_rest = counts[:, -1]
        totals = counts[:, :-1] @ steps.values
        m = int(n_rest.sum())
        if m:  # rest values in row order; float sums cannot wrap, and are exact near -1
            rest = steps.draws(rng.random(m), kmin) - 1
            totals = totals + np.bincount(np.repeat(rows, n_rest), weights=rest, minlength=BATCH)
        hits = np.flatnonzero(totals == -1)
        if not hits.size:
            continue
        r = int(hits[0])
        seq = np.repeat(steps.values, counts[r, :-1])
        if n_rest[r]:
            end = int(n_rest[: r + 1].sum())
            seq = np.concatenate([seq, rest[end - n_rest[r] : end]])
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
