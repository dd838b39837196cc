"""Exact samplers for GW trees, free and conditioned on total progeny.

The conditioned sampler is the classical three-step pipeline: draw n i.i.d.
steps of the shifted law conditioned on total sum -1, rotate the block at the
first minimum of its partial sums (cycle lemma: exactly one rotation is a
first-passage path), and read the tree off the resulting Lukasiewicz path.

Conditioning on the sum is done by block rejection.  Because step counts are a
sufficient statistic for the sum, a block is drawn as one multinomial count
vector (plus exact inversion of the analytic tail bucket) and only expanded to
a shuffled sequence after acceptance, so a rejected block costs O(support)
instead of O(n).  The dp_exact method instead samples the steps left to right,
each reweighted by the exact probability that the remaining walk reaches the
remaining target; it exists to cross-validate the rejection route at small n.

Both the free sampler and the rejection route read mu from one step sampler:
a table of mu on 0..cap (cap = min(support_cap(1e-15), 2^14)) plus one bucket
for the analytic tail beyond cap, whose values are drawn by exact bisection on
the tail function.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .codings import LukasiewiczPath, Tree, tree_from_walk
from .exactlaw import (
    ExactLawError,
    _walk_tables_iter,
    enumerate_conditioned,
    progeny_rho,
    walk_pmf,
)
from .offspring import OffspringLaw, StepLaw, step_law

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


def _rejection_increments(law: OffspringLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    steps = _StepSampler(law)
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


def _dp_tables(step: StepLaw, n: int, budget_floats: float) -> List[Tuple[int, np.ndarray]]:
    """Exact tables of W_m for m = 1..n-1, each trusted on [-m, n-m].

    The table of W_m is queried (while sampling n conditioned steps) only at
    values <= n - m - 1, and mass clipped above n - m at stage m cannot fall
    below n - m' at any later stage m' (steps >= -1), so the moving ceiling
    n - m keeps every queried entry exact.
    """
    if n * (n + 1) > budget_floats:
        raise ExactLawError(
            f"dp_exact tables need ~{n * (n + 1) * 8 / 1e9:.2f} GB at n={n}; "
            "raise dp_budget_floats or use rejection"
        )
    return [(off, arr) for _, off, arr in _walk_tables_iter(step, n - 1, hi_eval=1)]


def _dp_increments(
    step: StepLaw, n: int, rng: np.random.Generator, budget_floats: float
) -> np.ndarray:
    law = step.law
    tables = _dp_tables(step, n, budget_floats)
    nu = step.probabilities(n - 1)  # steps above n - 2 are infeasible for sum -1
    out = np.empty(n, dtype=np.int64)
    t = -1
    for i in range(n - 1):
        r = n - i  # steps remaining including the current one
        off_m, arr_m = tables[r - 2]  # table of W_{r-1}
        k_hi = min(nu.size - 2, t + r - 1)
        ks = np.arange(-1, k_hi + 1)
        idx = t - ks - off_m
        ok = (idx >= 0) & (idx < arr_m.size)
        probs = np.zeros(ks.size)
        probs[ok] = arr_m[idx[ok]]
        probs *= nu[: ks.size]
        total = probs.sum()
        if total <= 0.0:
            raise SamplerError("dp_exact reached an impossible state")
        j = int(np.searchsorted(np.cumsum(probs), rng.random() * total, side="right"))
        j = min(j, ks.size - 1)
        out[i] = ks[j]
        t -= int(ks[j])
    if t < -1 or t > nu.size - 2 or nu[t + 1] <= 0.0:
        raise SamplerError("dp_exact terminal step is impossible")
    out[n - 1] = t
    return out


def conditioned_increments(
    step: StepLaw,
    n: int,
    method: str = "rejection",
    rng_seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    dp_budget_floats: float = 1e8,
) -> np.ndarray:
    """n i.i.d. nu-steps conditioned on summing to -1 (exact distribution)."""
    if n < 1:
        raise SamplerError("n must be >= 1")
    if rng is None:
        rng = derive_rng(rng_seed)
    if n == 1:
        return np.array([-1], dtype=np.int64)
    if method == "rejection":
        return _rejection_increments(step.law, n, rng)
    if method == "dp_exact":
        return _dp_increments(step, n, rng, dp_budget_floats)
    raise SamplerError(f"unknown method {method!r}")


# -- cycle lemma ------------------------------------------------------------------


def cycle_shift(increments: np.ndarray) -> LukasiewiczPath:
    """Rotate a sum -1 block at the first minimum of its partial sums.

    For steps >= -1 summing to -1, exactly one of the n rotations first hits -1
    at time n; it is the one starting right after the first running minimum.
    """
    inc = np.asarray(increments, dtype=np.int64)
    n = inc.size
    if inc.min() < -1:
        raise SamplerError("increments must be >= -1")
    partial = np.cumsum(inc)
    if partial[-1] != -1:
        raise SamplerError("increments must sum to -1")
    k = (int(np.argmin(partial)) + 1) % n
    rot = np.concatenate([inc[k:], inc[:k]]) if k else inc
    walk = np.empty(n + 1, dtype=np.int64)
    walk[0] = 0
    np.cumsum(rot, out=walk[1:])
    return LukasiewiczPath(walk)


def sample_conditioned(
    law: OffspringLaw,
    n: int,
    method: str = "rejection",
    rng_seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Tree:
    """One tree exactly distributed as GW_mu conditioned on {zeta = n}."""
    if n < 1:
        raise SamplerError("n must be >= 1")
    if n <= 4096 and float(progeny_rho(law, n)[n]) <= 0.0:
        raise SamplerError(f"P[zeta = {n}] = 0 for this law")
    # zeta - 1 is a sum of child counts; with mu(0) > 0 each is a multiple of the span
    span = law.span
    if span == 0 or (n - 1) % span:
        raise SamplerError(f"P[zeta = {n}] = 0: n - 1 is not a multiple of the span {span}")
    inc = conditioned_increments(step_law(law), n, method, rng_seed, rng)
    return tree_from_walk(cycle_shift(inc))


# -- analytic sampler law ------------------------------------------------------------


def analytic_sampler_law(law: OffspringLaw, n: int) -> List[Tuple[Tree, float]]:
    """The sampler's output law computed analytically, tree by tree.

    A tree tau is produced exactly when the drawn block is one of the n
    (distinct, since the sum -1 forbids periodicity) rotations of tau's
    increment sequence, so P[tau] = n * prod_i mu(c_i) / P[W_n = -1].
    """
    table = walk_pmf(step_law(law), n, window=(-n, 0))
    p_sum = table.prob(-1)
    mu = law.probabilities(n)
    out = []
    for tree, _ in enumerate_conditioned(law, n):
        prob = n * float(np.prod(mu[tree.child_counts])) / p_sum
        out.append((tree, prob))
    return out
