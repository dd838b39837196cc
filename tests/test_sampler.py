import itertools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import chi2

from gwtrees import (
    Tree,
    conditioned_increments,
    cycle_shift,
    enumerate_conditioned,
    make_explicit,
    make_geometric,
    make_stable_family,
    sample_conditioned,
    sample_gw,
)
from gwtrees.exactlaw import conditioned_walk_marginal, progeny_rho
from gwtrees.limits import ks_discrete
from gwtrees.sampler import (
    HEAD_TARGET,
    SamplerError,
    _StepSampler,
    derive_rng,
)

from oracles import analytic_sampler_law


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def chi_square_fits(law, n, expected, seed, n_draws=20_000):
    """Pearson chi-square of sampled trees against an exact law, at the 99% level."""
    expected = dict(expected)
    rng = derive_rng(seed)
    counts = Counter(sample_conditioned(law, n, rng=rng) for _ in range(n_draws))
    assert set(counts) <= set(expected)
    stat = sum((counts[t] - n_draws * p) ** 2 / (n_draws * p) for t, p in expected.items())
    return stat < chi2.ppf(0.99, len(expected) - 1)


class TestSampleGw:
    def test_cap_one_is_single_node_or_signal(self, geometric):
        hits = 0
        for seed in range(4000):
            t = sample_gw(geometric, 1, rng=derive_rng(seed))
            if t is not None:
                assert t.zeta == 1
                hits += 1
        # P[zeta = 1] = mu(0) = 1/2, binomial 3 sigma
        assert abs(hits / 4000 - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_small_size_frequencies(self, geometric):
        counts = Counter()
        n_draws = 20_000
        for seed in range(n_draws):
            t = sample_gw(geometric, 500, rng=derive_rng(seed))
            if t is not None:
                counts[t.zeta] += 1
        for n, want in ((1, 0.5), (3, catalan(2) * 2.0**-5)):
            se = math.sqrt(want * (1 - want) / n_draws)
            assert abs(counts[n] / n_draws - want) < 3 * se

    def test_supercritical_rejected(self):
        with pytest.raises(SamplerError):
            sample_gw(make_geometric(0.7), 10, rng=derive_rng(0))

    def test_deterministic(self, geometric):
        a = sample_gw(geometric, 1000, rng=derive_rng(99))
        b = sample_gw(geometric, 1000, rng=derive_rng(99))
        assert (a is None and b is None) or a == b

    def test_stops_once_the_tree_cannot_fit(self):
        # support {0, 200}, critical: a root with 200 children cannot fit under a cap
        # of 200, so a None call ends after its first chunk of 64 uniforms
        law = make_explicit([1.0 - 1 / 200] + [0.0] * 199 + [1 / 200])

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def random(self, size):
                self.drawn += size
                return self.rng.random(size)

        drawn = []
        for seed in range(2000):
            rng = CountingRng(derive_rng(seed))
            if sample_gw(law, 200, rng=rng) is None:
                drawn.append(rng.drawn)
        assert drawn and set(drawn) == {64}

    def test_heavy_tail_trees_valid(self, stable15):
        trees = [sample_gw(stable15, 10_000, rng=derive_rng(seed)) for seed in range(50)]
        done = [t for t in trees if t is not None]
        assert done  # Tree() itself rejects an invalid degree sequence
        assert all(t.zeta <= 10_000 for t in done)


class TestStepSampler:
    """The table's top and its searches against a direct CDF search on a longer table."""

    def test_table_top_and_draws_past_it(self, stable15, geometric):
        # top is n - 1 unless the tail vanishes before: at an explicit law's support top,
        # and at 1074 for geometric(1/2), where 0.5^1075 underflows; past it draws read n
        explicit = stable15.truncate(20_000)
        for n in (1, 10_000, 100_000):
            for law, top in ((stable15, n - 1), (explicit, min(n - 1, 20_000)),
                             (geometric, min(n - 1, 1074))):
                steps = _StepSampler(law, n)
                assert steps.top == top
                mass = law.tail_mass(top)
                assert mass == 0.0 or top == n - 1
                if mass > 0.0:
                    past = 1.0 - np.geomspace(0.5 * mass, 1e-3 * mass, 50)
                    assert np.array_equal(steps.draws(past, 0), np.full(50, n))

    @pytest.mark.parametrize("kmin", [3, 50, 1000])
    def test_tail_quantile_match_table_search(self, stable15, kmin):
        # mu conditioned on >= kmin at u: the smallest k with tail(k) < tail(kmin - 1) - u
        us = np.linspace(0.0, 0.9 * stable15.tail_mass(kmin - 1), 2001)
        cdf = np.cumsum(stable15.probabilities(1 << 17)[kmin:])
        want = kmin + np.searchsorted(cdf, us, side="right")
        targets = stable15.tail_mass(kmin - 1) - us
        got = [stable15.support_cap(float(np.nextafter(t, 0.0))) for t in targets]
        assert got == want.tolist()

    def test_rest_draws_match_table_search(self, stable15):
        # the rejection route's rest values (mu conditioned on > head) at n = 1e4,
        # up to quantiles whose values lie past the table's top, which read n
        n = 10_000
        steps = _StepSampler(stable15, n)
        kmin = steps.head + 1
        assert 0 < steps.head < steps.top
        us = np.concatenate([np.linspace(0.0, 0.9, 2001), 1.0 - np.geomspace(0.1, 1e-5, 200)])
        mass = stable15.tail_mass(steps.head)
        cdf = np.cumsum(stable15.probabilities(1 << 17)[kmin:])
        want = kmin + np.searchsorted(cdf, us * mass, side="right")
        got = steps.draws(us, kmin)
        assert want.max() > n and want.max() < 1 << 17
        assert np.array_equal(got, np.minimum(want, n))

    def test_explicit_draws_match_table_search_past_two_to_the_14(self, stable15):
        # a table that covers an explicit law's whole support keeps every far quantile's value
        law = stable15.truncate(20_000)
        steps = _StepSampler(law, 30_000)
        us = np.concatenate([np.linspace(0.0, 1.0, 2001)[:-1], 1.0 - np.geomspace(1e-3, 1e-10, 400)])
        cdf = np.cumsum(law.probs)
        want = np.minimum(np.searchsorted(cdf, us * cdf[-1], side="right"), law.probs.size - 1)
        got = steps.draws(us, 0)
        assert want.max() > 1 << 14
        assert np.array_equal(got, want)

    def test_head_sized_from_n(self, geometric, stable15):
        # n P[mu > K] <= HEAD_TARGET at the smallest such K
        for law, n, head in ((geometric, 10_000, 10), (stable15, 10_000, 39),
                             (stable15, 7, 0), (stable15, 9, 0)):
            steps = _StepSampler(law, n)
            assert steps.head == head
            assert n * law.tail_mass(head) <= HEAD_TARGET
            assert head == 0 or n * law.tail_mass(head - 1) > HEAD_TARGET


class TestConditionedIncrements:
    def test_n1(self, geometric):
        assert conditioned_increments(geometric, 1, rng=derive_rng(0)).tolist() == [-1]

    def test_n3_uniform_over_admissible(self, geometric):
        # every admissible block has nu-probability 2^-(2n-1): 6 triples with
        # steps in -1..1 at n = 3, 20 quadruples with steps in -1..2 at n = 4
        for n, size, seed in ((3, 6, 314), (4, 20, 315)):
            admissible = sorted(
                seq
                for seq in itertools.product(range(-1, n - 1), repeat=n)
                if sum(seq) == -1
            )
            assert len(admissible) == size
            rng = derive_rng(seed)
            counts = Counter()
            n_draws = 60_000
            for _ in range(n_draws):
                counts[tuple(conditioned_increments(geometric, n, rng=rng))] += 1
            assert sorted(counts) == admissible
            for seq in admissible:
                se = math.sqrt((1 / size) * (1 - 1 / size) / n_draws)
                assert abs(counts[seq] / n_draws - 1 / size) < 4 * se

    def test_sum_and_steps(self, stable15):
        seq = conditioned_increments(stable15, 64, rng=derive_rng(5))
        assert seq.sum() == -1 and seq.min() >= -1 and seq.size == 64

    @pytest.mark.parametrize("n", [60, 1100])
    def test_zero_one_support_is_one_draw(self, n):
        # support {0,1}: every block of n - 1 zeros and one -1 has probability
        # mu(0) mu(1)^(n-1), so the -1's position is the only draw
        rng, twin = derive_rng(n), derive_rng(n)
        seq = conditioned_increments(make_explicit([0.5, 0.5]), n, rng=rng)
        assert sorted(seq.tolist()) == [-1] + [0] * (n - 1)
        assert int(np.argmin(seq)) == twin.integers(n)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_zero_one_support_position_uniform(self):
        n, n_draws = 5, 20_000
        law, rng = make_explicit([0.5, 0.5]), derive_rng(55)
        at = [int(np.argmin(conditioned_increments(law, n, rng=rng))) for _ in range(n_draws)]
        counts = np.bincount(at, minlength=n)
        stat = float(((counts - n_draws / n) ** 2).sum() / (n_draws / n))
        assert stat < chi2.ppf(0.99, n - 1)


class TestCycleShift:
    def test_examples(self):
        assert cycle_shift(np.array([-1, 1, -1])).values.tolist() == [0, 1, 0, -1]
        assert cycle_shift(np.array([0, -1, 1, -1])).values.tolist() == [0, 1, 0, 0, -1]
        assert cycle_shift(np.array([1, -1, -1])).values.tolist() == [0, 1, 0, -1]

    def test_uniqueness_exhaustive(self):
        # every step block (steps in {-1..3}, sum -1, n <= 6) has exactly one
        # rotation that is a first-passage path, and cycle_shift returns it
        def is_excursion(seq):
            w = np.concatenate([[0], np.cumsum(seq)])
            return w[-1] == -1 and (w[1:-1] >= 0).all()

        for n in range(1, 7):
            for seq in itertools.product(range(-1, 4), repeat=n):
                if sum(seq) != -1:
                    continue
                arr = np.array(seq)
                rotations = [
                    tuple(np.roll(arr, -r)) for r in range(n)
                ]
                good = [r for r in rotations if is_excursion(np.array(r))]
                assert len(good) == 1
                got = cycle_shift(arr)
                assert tuple(np.diff(got.values)) == good[0]

    def test_bad_input(self):
        with pytest.raises(SamplerError):
            cycle_shift(np.array([1, -1]))  # sums to 0
        with pytest.raises(SamplerError):
            cycle_shift(np.array([-2, 1]))  # step below -1


class TestSampleConditioned:
    def test_n2_unique_tree(self, geometric):
        for seed in range(50):
            t = sample_conditioned(geometric, 2, rng=derive_rng(seed))
            assert t.child_counts.tolist() == [1, 0]

    def test_n3_even_split(self, geometric):
        counts = Counter()
        rng = derive_rng(8)
        for _ in range(20_000):
            counts[tuple(sample_conditioned(geometric, 3, rng=rng).child_counts)] += 1
        for key in ((1, 1, 0), (2, 0, 0)):
            assert abs(counts[key] / 20_000 - 0.5) < 3 * math.sqrt(0.25 / 20_000)

    def test_n5_chi_square_against_enumeration(self, geometric):
        expected = {t: p for t, p in enumerate_conditioned(geometric, 5)}
        rng = derive_rng(1234)
        n_draws = 100_000
        counts = Counter()
        for _ in range(n_draws):
            counts[sample_conditioned(geometric, 5, rng=rng)] += 1
        assert set(counts) <= set(expected)
        stat = sum(
            (counts[t] - n_draws * p) ** 2 / (n_draws * p) for t, p in expected.items()
        )
        # 14 trees -> 13 degrees of freedom at the 99% level
        assert stat < chi2.ppf(0.99, len(expected) - 1)

    def test_sizes_exact(self, geometric, stable15):
        # the subcritical geometric laws are served on their critical tilt; a law
        # supported in {0,1} has no tilt, and its only tree is the path; mu = delta_0
        # has span 0 and one tree, the single vertex
        path_law = make_explicit([0.5, 0.5])
        for law, n in ((geometric, 137), (stable15, 137), (geometric, 2048),
                       (make_geometric(0.4), 1000), (make_geometric(0.2), 2000),
                       (path_law, 1), (path_law, 60), (path_law, 1100),
                       (geometric, 1), (stable15, 1), (make_explicit([1.0]), 1),
                       (stable15.truncate(2000), 1100), (stable15.truncate(200), 4096)):
            assert sample_conditioned(law, n, rng=derive_rng(3)).zeta == n

    def test_subcritical_chi_square_against_enumeration(self):
        # mean 0.8, so rejection runs on the critical tilt of [0.5, 0.2, 0.3]
        law = make_explicit([0.5, 0.2, 0.3])
        assert chi_square_fits(law, 4, enumerate_conditioned(law, 4), 4321, n_draws=10_000)

    @pytest.mark.parametrize("n, seed", [(7, 71), (9, 91)])
    def test_heavy_tail_chi_square_against_analytic_law(self, stable15, n, seed):
        # the head is {0} alone (test_head_sized_from_n), so every other value
        # is a rest draw, including values no n-vertex tree can hold
        assert chi_square_fits(stable15, n, analytic_sampler_law(stable15, n), seed)

    def test_rest_past_every_tree_chi_square_against_enumeration(self):
        # support {0, 1, 2, 20}, critical; at n = 6 the head is {0} and a rest
        # value of 20 (read as 6, past the table's top of 5) must be rejected every time
        law = make_explicit([0.58, 0.2, 0.2] + [0.0] * 17 + [0.02])
        assert _StepSampler(law, 6).head == 0
        assert chi_square_fits(law, 6, enumerate_conditioned(law, 6), 62)

    def test_zero_probability_size(self):
        # the stable family has mu(1) = 0, so no tree with exactly 2 vertices;
        # refused before any draw
        for theta in [k / 100 for k in range(101, 200)]:
            rng = derive_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(SamplerError, match="P\\[zeta = 2\\] = 0"):
                sample_conditioned(make_stable_family(theta), 2, rng=rng)
            assert rng.bit_generator.state == state

    def test_size_rule_matches_progeny_law(self, geometric):
        # trees of n vertices exist iff P[zeta = n] > 0, on random explicit supports
        # with points <= 13 and on the closed-form families, for n <= 60
        gen = np.random.default_rng(17)
        laws = [geometric, make_stable_family(1.05), make_stable_family(1.5)]
        for _ in range(200):
            points = gen.choice(np.arange(1, 14), size=gen.integers(1, 5), replace=False)
            probs = np.zeros(points.max() + 1)
            probs[points] = gen.uniform(0.1, 1.0, points.size)
            probs[0] = gen.uniform(0.2, 0.8)
            probs[1:] *= (1.0 - probs[0]) / probs[1:].sum()
            laws.append(make_explicit(probs))
        for law in laws:
            admits = [law.size_possible(n) for n in range(1, 61)]
            assert admits == (progeny_rho(law, 60)[1:] > 0).tolist()

    def test_sizes_past_the_frobenius_gap(self):
        # support {0, 100, 101}: 4999 is no sum of 100s and 101s, refused before any
        # draw; 5000 = 50 * 100 is one, whose trees are too rare for the attempt budget
        law = make_explicit([0.5] + [0.0] * 99 + [0.25, 0.25])
        rng = derive_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SamplerError, match="P\\[zeta = 5000\\] = 0"):
            sample_conditioned(law, 5000, rng=rng)
        assert rng.bit_generator.state == state
        with pytest.raises(SamplerError, match="vanishing probability"):
            sample_conditioned(law, 5001, rng=rng)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_size_fails_fast(self, geometric, n):
        with pytest.raises(SamplerError, match="n must be >= 1"):
            sample_conditioned(geometric, n, rng=derive_rng(0))

    def test_off_lattice_size_fails_fast(self):
        # support {0, 2} has span 2: zeta is always odd
        with pytest.raises(SamplerError, match="span"):
            sample_conditioned(make_explicit([0.5, 0.0, 0.5]), 4098, rng=derive_rng(0))

    def test_same_seed_same_tree_and_thread_independence(self, geometric):
        serial = [sample_conditioned(geometric, 64, rng=derive_rng(7, i)) for i in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda i: sample_conditioned(geometric, 64, rng=derive_rng(7, i)),
                         range(8))
            )
        assert all(a == b for a, b in zip(serial, threaded))
        again = [sample_conditioned(geometric, 64, rng=derive_rng(7, i)) for i in range(8)]
        assert all(a == b for a, b in zip(serial, again))

    def test_head_only_rows_weighted_against_enumeration(self):
        # critical, n = 9: the head is {0, 1} and the rest {2, 3}, so head-only rows
        # (m = 0) carry the path's mass; without the swap to head-only rows the
        # path's frequency would read about 0.79
        law = make_explicit([0.09, 0.85, 0.03, 0.03])
        n, n_draws = 9, 20_000
        assert _StepSampler(law, n).head == 1
        want = dict(enumerate_conditioned(law, n))[Tree(np.array([1] * (n - 1) + [0]))]
        assert abs(want - 0.88559) < 1e-5
        # the path is the one tree whose block is n - 1 zeros and a -1, in any rotation
        rng = derive_rng(909)
        hits = sum(int(np.count_nonzero(conditioned_increments(law, n, rng=rng))) == 1
                   for _ in range(n_draws))
        assert abs(hits / n_draws - want) < 4 * math.sqrt(want * (1 - want) / n_draws)

    @pytest.mark.parametrize("law_name", ["geometric", "stable15"])
    def test_walk_marginal_ks_against_exact_law(self, law_name, request):
        # W_{n/2} of 10^4 trees at n = 10^3 against P[W_{n/2} = k | zeta = n], by the
        # tie-aware KS distance
        law = request.getfixturevalue(law_name)
        n, m, n_draws = 1000, 500, 10_000
        rng = derive_rng(1000)
        at = [int(sample_conditioned(law, n, rng=rng).child_counts[:m].sum()) - m
              for _ in range(n_draws)]
        ks = ks_discrete(at, conditioned_walk_marginal(law, n, m))
        assert math.sqrt(n_draws) * ks <= 1.63


class TestAnalyticSamplerLaw:
    def test_matches_enumeration(self, geometric):
        for n in range(2, 7):
            sampler_law = analytic_sampler_law(geometric, n)
            enum_law = enumerate_conditioned(geometric, n)
            for (t1, p1), (t2, p2) in zip(sampler_law, enum_law):
                assert t1 == t2
                assert abs(p1 - p2) <= 1e-12

    def test_heavy_tail_law(self, stable15):
        sampler_law = analytic_sampler_law(stable15, 5)
        total = sum(p for _, p in sampler_law)
        assert abs(total - 1.0) < 1e-12
