"""Exact samplers for GW trees, free and conditioned on total progeny.

The conditioned sampler is the classical three-step pipeline: draw n i.i.d.
steps of the shifted law conditioned on total sum -1, rotate the block at the
first minimum of its partial sums (cycle lemma: exactly one rotation is a
first-passage path), and read the tree off it: child count = step + 1.

Conditioning on the sum is done by block rejection.  Because step counts are a
sufficient statistic for the sum, a block is drawn as one multinomial count
vector (plus exact inversion of the analytic tail bucket) and only expanded to
a shuffled sequence after acceptance, so a rejected block costs O(support)
instead of O(n).

Rejection runs on the critical tilt of mu.  The tilt mu(k) lam^k / f(lam)
multiplies the probability of every block with sum -1, hence of every tree
with n vertices, by the same factor lam^(n-1) / f(lam)^n, so the conditioned
law is unchanged (Kennedy 1975); but P[W_n = -1] decays like a power of n on
a critical law and exponentially on any other.  A critical law is its own
tilt.  A law supported in {0,1} has no tilt; its only tree is the path, which
is returned without a draw.

Both the free sampler and the rejection route read mu from one step sampler:
a table of mu on 0..cap (cap = min(support_cap(1e-15), 2^14)) plus one bucket
for the analytic tail beyond cap, whose values are drawn by exact bisection on
the tail function.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .codings import LukasiewiczPath, Tree
from .exactlaw import enumerate_conditioned, progeny_rho, walk_pmf
from .offspring import OffspringLaw, tilt_to_critical

__all__ = [
    "derive_rng",
    "sample_gw",
    "conditioned_increments",
    "cycle_shift",
    "sample_conditioned",
    "analytic_sampler_law",
    "SamplerError",
]


class SamplerError(RuntimeError):
    pass


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, replicate path); independent of threading."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *path]))


def _tail_quantile(law: OffspringLaw, kmin: int, u: float) -> int:
    """Exact draw of mu conditioned on {value >= kmin}, at tail quantile u.

    Pure bisection on the analytic tail function, so far-out values cost
    O(log value) instead of materializing the pmf prefix.
    """
    target = max(law.tail_mass(kmin - 1) - u, 1e-300)
    hi = max(2 * kmin, kmin + 4)
    while law.tail_mass(hi) >= target:
        hi *= 2
    lo = kmin
    while lo < hi:
        mid = (lo + hi) // 2
        if law.tail_mass(mid) < target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _StepSampler:
    """mu as a table on 0..cap plus one bucket for its analytic tail beyond cap.

    The one step sampler of both samplers: ``sample_gw`` inverts the CDF of
    ``bulk``, the rejection sampler draws one multinomial over ``bulk`` plus
    the ``tail`` bucket.  The cap keeps that multinomial cheap; values beyond
    it are resolved exactly by ``tail_draws``.
    """

    def __init__(self, law: OffspringLaw):
        self.law = law
        self.cap = min(law.support_cap(1e-15), 1 << 14)
        self.bulk = law.probabilities(self.cap)
        self.tail = law.tail_mass(self.cap)

    def tail_draws(self, us: np.ndarray) -> np.ndarray:
        """Values of mu beyond cap at tail quantiles us in [0, tail)."""
        return np.array(
            [_tail_quantile(self.law, self.cap + 1, float(u)) for u in us], dtype=np.int64
        )


# -- unconditioned sampling ------------------------------------------------------


def sample_gw(law: OffspringLaw, size_cap: int, rng_seed: int) -> Optional[Tree]:
    """One GW tree, or None when the tree exceeds size_cap vertices.

    The preorder degree sequence is generated chunk-wise; the tree is complete
    at the first index where 1 + sum(c_i - 1) hits zero (first passage of the
    Lukasiewicz path).  Deterministic given the seed.
    """
    if size_cap < 1:
        raise SamplerError("size_cap must be >= 1")
    if law.mean > 1.0 + 1e-10:
        raise SamplerError("sample_gw needs a (sub)critical law; tilt first")
    rng = derive_rng(rng_seed)
    steps = _StepSampler(law)
    cdf = np.cumsum(steps.bulk)
    head = float(cdf[-1])
    chunks: List[np.ndarray] = []
    open_slots = 1
    drawn = 0
    chunk_size = 64
    while drawn < size_cap:
        u = rng.random(min(chunk_size, size_cap - drawn))
        chunk = np.searchsorted(cdf, u, side="right")
        over = u >= head
        chunk[over] = steps.tail_draws(u[over] - head)
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


@lru_cache(maxsize=64)  # one tilted object per law, so the guard's progeny_rho cache hits
def _critical_tilt(law: OffspringLaw) -> OffspringLaw:
    """law's critical tilt; a law supported in {0,1} has none and is kept."""
    if law.family == "explicit" and law.probs.size <= 2:
        return law
    return tilt_to_critical(law)


def conditioned_increments(
    law: OffspringLaw,
    n: int,
    rng_seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """n i.i.d. steps nu(k) = mu(k+1) conditioned on summing to -1 (exact distribution).

    The steps are drawn on the critical tilt of mu, which leaves their
    conditioned law unchanged (see the module docstring).
    """
    if n < 1:
        raise SamplerError("n must be >= 1")
    if rng is None:
        rng = derive_rng(rng_seed)
    if n == 1:
        return np.array([-1], dtype=np.int64)
    steps = _StepSampler(_critical_tilt(law))
    pvals = np.maximum(np.append(steps.bulk, steps.tail), 0.0)
    pvals /= pvals.sum()
    values = np.arange(-1, steps.cap, dtype=np.int64)  # nu(-1 .. cap-1) = mu(0 .. cap)
    max_attempts = 50 * n + 100_000  # expected ~ B_n / p1(0), so huge slack

    for _ in range(max_attempts):
        counts = rng.multinomial(n, pvals)
        n_tail = int(counts[-1])
        total = int(values @ counts[:-1])
        if n_tail:  # most blocks have no tail step; skip the draw's fixed cost
            tail_steps = steps.tail_draws(rng.random(n_tail) * steps.tail) - 1
            total += int(tail_steps.sum())
        if total != -1:
            continue
        seq = np.repeat(values, counts[:-1])
        if n_tail:
            seq = np.concatenate([seq, tail_steps])
        rng.shuffle(seq)
        return seq
    raise SamplerError(
        f"no block with sum -1 in {max_attempts} attempts (n={n}); "
        "the conditional event may have zero or vanishing probability"
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


def sample_conditioned(
    law: OffspringLaw,
    n: int,
    rng_seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Tree:
    """One tree exactly distributed as GW_mu conditioned on {zeta = n}.

    Serves any law with a critical tilt, at the critical law's acceptance rate,
    and any law supported in {0,1}.
    """
    if n < 1:
        raise SamplerError("n must be >= 1")
    if law.family == "explicit" and law.probs.size == 2:
        return Tree([1] * (n - 1) + [0])  # support {0,1}: the path is the only tree
    law = _critical_tilt(law)  # before the guard: P[zeta = n] underflows off criticality
    if n <= 4096 and float(progeny_rho(law, n)[n]) <= 0.0:
        raise SamplerError(f"P[zeta = {n}] = 0 for this law")
    # zeta - 1 is a sum of child counts; with mu(0) > 0 each is a multiple of the
    # span (0 for a one-point support, whose only finite tree is the single vertex)
    span = law.span
    if n > 1 and (span == 0 or (n - 1) % span):
        raise SamplerError(f"P[zeta = {n}] = 0: n - 1 is not a multiple of the span {span}")
    inc = conditioned_increments(law, n, rng_seed, rng)
    return Tree(_first_passage_rotation(inc) + 1)


# -- analytic sampler law ------------------------------------------------------------


def analytic_sampler_law(law: OffspringLaw, n: int) -> List[Tuple[Tree, float]]:
    """The sampler's output law computed analytically, tree by tree.

    A tree tau is produced exactly when the drawn block is one of the n
    (distinct, since the sum -1 forbids periodicity) rotations of tau's
    increment sequence, so P[tau] = n * prod_i mu(c_i) / P[W_n = -1].
    """
    table = walk_pmf(law, n, 0)
    p_sum = table.prob(-1)
    mu = law.probabilities(n)
    out = []
    for tree, _ in enumerate_conditioned(law, n):
        prob = n * float(np.prod(mu[tree.child_counts])) / p_sum
        out.append((tree, prob))
    return out
