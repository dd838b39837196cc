import itertools
import math

import numpy as np
import pytest

from gwtrees import exactlaw as ex
from gwtrees import step_law
from gwtrees.offspring import make_explicit


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def dict_convolve(d1, d2):
    out = {}
    for a, pa in d1.items():
        for b, pb in d2.items():
            out[a + b] = out.get(a + b, 0.0) + pa * pb
    return out


def brute_walk_pmf(nu, n):
    """Oracle: n-fold dict convolution of a {step: prob} map."""
    cur = {0: 1.0}
    for _ in range(n):
        cur = dict_convolve(cur, nu)
    return cur


def brute_meander_pmf(nu, m):
    """Oracle: m dict convolutions, dropping every state below 0 after each step."""
    cur = {0: 1.0}
    for _ in range(m):
        cur = {k: p for k, p in dict_convolve(cur, nu).items() if k >= 0}
    return cur


GEO_NU = {k - 1: 0.5 ** (k + 1) for k in range(64)}  # nu(-1..62) of geometric(1/2)


class TestConv:
    def test_fft_branch_matches_direct(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(3000), rng.random(1200)
        a, b = a / a.sum(), b / b.sum()
        assert a.size * b.size > 1 << 20  # above the np.convolve threshold
        got = ex._conv(a, b)
        want = np.convolve(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15


class TestWalkPmf:
    def test_one_step(self, geometric):
        t = ex.walk_pmf(step_law(geometric), 1)
        assert t.prob(-1) == 0.5
        assert t.prob(0) == 0.25

    def test_three_steps_value(self, geometric):
        # 6 equiprobable step-triples summing to -1, each of mass 2^-5
        t = ex.walk_pmf(step_law(geometric), 3)
        assert abs(t.prob(-1) - 3 / 16) < 1e-15

    def test_against_dict_oracle(self, geometric):
        t = ex.walk_pmf(step_law(geometric), 5)
        oracle = brute_walk_pmf(GEO_NU, 5)
        for k, p in oracle.items():
            assert abs(t.prob(k) - p) < 1e-13

    def test_two_steps_is_self_convolution(self, geometric):
        step = step_law(geometric)
        t2 = ex.walk_pmf(step, 2)
        nu = step.probabilities(80)
        direct = np.convolve(nu, nu)
        assert np.allclose(t2.masses[: direct.size], direct[: t2.masses.size], atol=1e-15)

    def test_mass_accounting(self, geometric, stable15):
        for law, window in ((geometric, None), (stable15, (-64, 500))):
            t = ex.walk_pmf(step_law(law), 64, window=window)
            assert abs(t.masses.sum() + t.truncated_mass - 1.0) < 1e-12

    def test_protected_window_exactness(self, stable15):
        # heavy tail: a clipped table must still be exact below its window top
        step = step_law(stable15)
        wide = ex.walk_pmf(step, 12, window=(-12, 4000))
        narrow = ex.walk_pmf(step, 12, window=(-12, 40))
        ks = np.arange(-12, 41)
        assert np.allclose(wide.probs(ks), narrow.probs(ks), atol=1e-15, rtol=0)
        assert narrow.truncated_mass > 1e-6  # plenty of mass really was clipped

    def test_window_below_minimum_rejected(self, geometric):
        with pytest.raises(ex.ExactLawError):
            ex.walk_pmf(step_law(geometric), 4, window=(-4, -6))


class TestProgeny:
    def test_catalan_oracle(self, geometric):
        table = ex.progeny_pmf(geometric, 14)
        for n in range(1, 15):
            want = catalan(n - 1) * 2.0 ** (-(2 * n - 1))
            assert abs(table.prob(n) - want) < 1e-14

    def test_first_values(self, geometric, stable15):
        assert ex.progeny_pmf(geometric, 3).prob(1) == 0.5
        assert abs(ex.progeny_pmf(stable15, 3).prob(1) - 2 / 3) < 1e-15

    def test_routes_cross_checked(self, geometric, stable15):
        for law in (geometric, stable15):
            kem = ex.progeny_pmf(law, 48, method="kemperman")
            rec = ex.progeny_pmf(law, 48, method="recursion")
            gap = np.max(np.abs(kem.masses - rec.masses))
            assert gap < 1e-13
            ex.progeny_pmf(law, 48, method="both")  # raises on disagreement

    def test_explicit_law_recursion(self):
        law = make_explicit([0.5, 0.0, 0.5])
        rec = ex.progeny_pmf(law, 21, method="both")
        # binary trees: P[zeta = 2m+1] = catalan(m) * (1/2)^(2m+1)
        for m in range(0, 11):
            want = catalan(m) * 0.5 ** (2 * m + 1)
            assert abs(rec.prob(2 * m + 1) - want) < 1e-14
            if 2 * m <= 20 and m > 0:
                assert rec.prob(2 * m) == 0.0


class TestKemperman:
    def test_identity_small_n(self, geometric, stable15):
        # (j/n) P[W_n = -j] versus the j-fold convolution of the recursion law
        for law in (geometric, stable15, law_trunc := stable15.truncate(40)):
            step = step_law(law)
            for n in range(1, 15):
                phi_vec, _ = ex.phi_phi_star_at(law, n, 4)
                for j in range(1, 5):
                    walk_route = ex.phi(step, n, j)
                    assert abs(walk_route - phi_vec[j - 1]) <= 1e-12


class TestPhi:
    def test_phi_equals_progeny(self, geometric):
        assert abs(ex.phi(step_law(geometric), 3, 1) - 1 / 16) < 1e-15

    def test_phi_star_trivial_and_value(self, geometric):
        step = step_law(geometric)
        for j in (1, 2, 5):
            assert ex.phi_star(step, 1, j) == 1.0
        assert abs(ex.phi_star(step, 2, 1) - 0.5) < 1e-15

    def test_phi_star_nonincreasing_in_n(self, geometric, stable15):
        for law in (geometric, stable15):
            step = step_law(law)
            for j in (1, 2, 3):
                vals = [ex.phi_star(step, n, j) for n in range(1, 20)]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_preconditions(self, geometric):
        step = step_law(geometric)
        with pytest.raises(ex.ExactLawError):
            ex.phi(step, 3, 0)
        with pytest.raises(ex.ExactLawError):
            ex.phi_star(step, 0, 1)


class TestDiscreteRatio:
    def test_nonnegative(self, geometric):
        step = step_law(geometric)
        for n, a, k in itertools.product((6, 10, 14), (0.3, 0.5), (0, 1, 3)):
            assert ex.discrete_ratio(step, n, a, k) >= 0.0

    def test_pinned_value_n6(self, geometric):
        # from Catalan closed forms: phi_3(1) = 1/16, phi_6(1) = 21/1024,
        # phi*_3(1) = 3/8, phi*_6(1) = 63/256, so D = (64/21) / (32/21) = 2
        d = ex.discrete_ratio(step_law(geometric), 6, 0.5, 0)
        assert abs(d - 2.0) < 1e-12

    def test_weighted_mean_is_one(self, geometric, stable15):
        for law in (geometric, stable15):
            for n in (8, 32, 64):
                assert abs(ex.ratio_weighted_mean(law, n, 0.5) - 1.0) < 1e-11

    def test_preconditions(self, geometric):
        step = step_law(geometric)
        with pytest.raises(ex.ExactLawError):
            ex.discrete_ratio(step, 6, 1.5, 0)
        with pytest.raises(ex.ExactLawError):
            ex.discrete_ratio(step, 6, 0.5, -1)


class TestEnumerate:
    def test_single_vertex(self, geometric):
        out = ex.enumerate_conditioned(geometric, 1)
        assert len(out) == 1 and out[0][1] == 1.0

    def test_n3_two_trees(self, geometric):
        out = ex.enumerate_conditioned(geometric, 3)
        assert [t.child_counts.tolist() for t, _ in out] == [[1, 1, 0], [2, 0, 0]]
        assert all(abs(p - 0.5) < 1e-15 for _, p in out)

    def test_catalan_counts(self, geometric):
        for n in range(1, 9):
            assert len(ex.enumerate_conditioned(geometric, n)) == catalan(n - 1)

    def test_probabilities_normalized(self, geometric, stable15):
        for law in (geometric, stable15):
            for n in (4, 6):
                total = sum(p for _, p in ex.enumerate_conditioned(law, n))
                assert abs(total - 1.0) < 1e-12

    def test_too_large(self, geometric):
        with pytest.raises(ex.ExactLawError):
            ex.enumerate_conditioned(geometric, 15)


class TestAbsoluteContinuity:
    @pytest.mark.parametrize("n,a", [(4, 0.5), (6, 0.5), (6, 0.25)])
    def test_geometric(self, geometric, n, a):
        rep = ex.check_absolute_continuity(geometric, n, a)
        assert rep.passed
        assert rep.statistics["max_discrepancy"] <= 1e-10
        assert abs(rep.statistics["rhs_total"] - 1.0) <= 1e-10  # f = 1 case

    @pytest.mark.parametrize("n,a", [(4, 0.5), (6, 0.5), (6, 0.25)])
    def test_truncated_stable(self, stable15, n, a):
        rep = ex.check_absolute_continuity(stable15.truncate(40), n, a)
        assert rep.passed
        assert rep.statistics["max_discrepancy"] <= 1e-10


class TestMeander:
    def test_mass_equals_survival(self, geometric, stable15):
        # sum of the killed-walk table + clipped mass = P[zeta > m]
        for law in (geometric, stable15):
            m = 48
            mea = ex.meander_pmf(step_law(law), m, hi_eval=96, protect=96)
            rho = ex.progeny_rho(law, m)
            survival = 1.0 - float(rho[: m + 1].sum())
            assert abs(float(mea.masses.sum()) + mea.clipped_mass - survival) < 1e-12

    def test_markov_identity(self, geometric):
        # sum_k meander_m(k) phi_rest(k+1) = P[zeta = n]
        n, m = 40, 20
        mea = ex.meander_pmf(step_law(geometric), m, hi_eval=n, protect=n)
        ks = np.arange(mea.lo, mea.hi + 1)
        phi_r, _ = ex.phi_phi_star_at(geometric, n - m, int(ks[-1]) + 1)
        lhs = float((mea.masses * phi_r[ks]).sum())
        assert abs(lhs - ex.progeny_rho(geometric, n)[n]) < 1e-14

    def test_against_killed_walk_oracle(self, geometric, stable15):
        # steps above hi_eval + m cannot end inside [0, hi_eval], so nu on
        # [-1, 40] makes the dict oracle exact on the whole table
        hi_eval = 12
        for law in (geometric, stable15):
            step = step_law(law)
            nu = {k: float(p) for k, p in zip(range(-1, 41), step.probabilities(40))}
            for m in range(1, 7):
                mea = ex.meander_pmf(step, m, hi_eval=hi_eval)
                assert (mea.lo, mea.exact_hi) == (0, hi_eval)
                oracle = brute_meander_pmf(nu, m)
                want = np.array([oracle.get(k, 0.0) for k in range(mea.lo, mea.hi + 1)])
                assert np.max(np.abs(mea.masses - want)) < 1e-15
