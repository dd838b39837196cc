import itertools
import math

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.stats import nbinom

from gwtrees import exactlaw as ex
from gwtrees.offspring import make_explicit, make_geometric, make_stable_family


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


def untrimmed_conv(a, b):
    """Full convolution; the FFT branch clips negative noise at 0 and trims nothing."""
    if a.size * b.size <= 1 << 20 or min(a.size, b.size) <= 96:
        return np.convolve(a, b)
    size = a.size + b.size - 1
    L = sp_fft.next_fast_len(size, real=True)
    return np.maximum(sp_fft.irfft(sp_fft.rfft(a, L) * sp_fft.rfft(b, L), L)[:size], 0.0)


def stepwise_meander(law, m, hi_eval, protect):
    """Oracle: the killed walk advanced one step per convolution under the moving
    ceiling hi_eval + (protect - q); returns (table on [0, ...], clipped mass)."""
    horizon = max(protect, m)
    _, nu = ex._step_table(law, hi_eval + horizon)  # nu on [-1, ...]
    nu_defect = 1.0 - float(nu.sum())  # jumps beyond the table land above every ceiling
    cur, clipped = np.ones(1), 0.0
    for q in range(1, m + 1):
        clipped += float(cur.sum()) * nu_defect
        out = untrimmed_conv(cur, nu)[1:]  # on [0, ...]: paths that dip below 0 are killed
        keep = hi_eval + horizon - q + 1
        clipped += float(out[keep:].sum())
        cur = out[:keep]
    return cur, max(0.0, clipped)


def stepwise_walk_tables(law, n, hi_eval):
    """Oracle: (m, offset, table of W_m) for m = 1..n, one convolution per step under
    the moving ceiling hi_eval + (n - m), so every table is exact on [-m, hi_eval]."""
    _, nu = ex._step_table(law, hi_eval + n - 1)  # nu on [-1, ...]
    cur = nu
    yield 1, -1, cur
    for m in range(2, n + 1):
        cur = untrimmed_conv(cur, nu)[: hi_eval + n + 1]  # on [-m, hi_eval + n - m]
        yield m, -m, cur


def rho_power_profiles(law, p, j_max):
    """Oracle: (phi_p(j), phi*_p(j)) for j = 1..j_max <= p from convolution powers
    of the recursion progeny law, phi_p(j) = rho^(*j)(p) and
    phi*_p(j) = 1 - sum_{q<p} rho^(*j)(q); truncating the powers at p is exact
    because every progeny is >= 1."""
    rho = ex.progeny_rho(law, p)[: p + 1]
    phi_vals, phistar_vals = np.zeros(j_max), np.ones(j_max)
    cur = rho
    for j in range(1, j_max + 1):
        phi_vals[j - 1] = cur[p] if cur.size > p else 0.0  # trimmed: below FFT noise
        phistar_vals[j - 1] = max(0.0, 1.0 - float(cur[:p].sum()))
        if j < j_max:
            cur = ex._conv(cur, rho)[: p + 1]
    return phi_vals, phistar_vals


def kemperman_phi_star(law, p_list):
    """Oracle: {p: phi*_p(j), j = 1..p} as 1 - sum_{q<p} (j/q) P[W_q = -j], the walk
    tables W_1..W_{p-1} taken from the one-step oracle."""
    p_max = max(p_list)
    out, acc = {}, np.zeros(p_max)  # acc[j - 1] = sum_{q<p} phi_q(j)
    js = np.arange(1, p_max + 1)
    if 1 in p_list:
        out[1] = np.ones(1)
    if p_max > 1:
        for q, off, arr in stepwise_walk_tables(law, p_max - 1, 0):
            i = -js - off
            ok = (i >= 0) & (i < arr.size)
            acc[ok] += js[ok] / q * arr[i[ok]]
            if q + 1 in p_list:
                out[q + 1] = 1.0 - acc[: q + 1]
    return out


GEO_NU = {k - 1: 0.5 ** (k + 1) for k in range(64)}  # nu(-1..62) of geometric(1/2)
MEANDER_LAWS = {
    "geometric": make_geometric(0.5),
    "theta1.5": make_stable_family(1.5),
    "theta1.2": make_stable_family(1.2),
    "binary": make_explicit([0.5, 0.0, 0.5]),
}
J = ex.MEANDER_BLOCK


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
        # numpy's FFT at the scipy length reproduces the scipy route bit for bit
        assert np.array_equal(got, untrimmed_conv(a, b)[: got.size])

    def test_fast_len_matches_scipy(self):
        fast_len = ex._fast_len.__wrapped__  # uncached, so the check fills no cache
        ns = list(range(1, 100_001)) + [2**20 + d for d in (-1, 0, 1, 7, 4097)] + [3**12 * 5 + 1]
        assert [fast_len(n) for n in ns] == [sp_fft.next_fast_len(n, real=True) for n in ns]


class TestWalkPmf:
    def test_one_step(self, geometric, stable15):
        # the walk steps by nu(k) = mu(k+1)
        for law, down, flat in ((geometric, 0.5, 0.25), (stable15, 2 / 3, 0.0)):
            t = ex.walk_pmf(law, 1)
            assert t.prob(-1) == down
            assert t.prob(0) == flat

    def test_three_steps_value(self, geometric):
        # 6 equiprobable step-triples summing to -1, each of mass 2^-5
        t = ex.walk_pmf(geometric, 3)
        assert abs(t.prob(-1) - 3 / 16) < 1e-15

    def test_against_dict_oracle(self, geometric):
        t = ex.walk_pmf(geometric, 5)
        oracle = brute_walk_pmf(GEO_NU, 5)
        for k, p in oracle.items():
            assert abs(t.prob(k) - p) < 1e-13

    def test_point_mass_reaches_the_minimum(self):
        # every vertex a leaf: each step is -1, so W_n = -n, the walk's minimum
        law = make_explicit([1.0])
        for n in (1, 3, 5):
            t = ex.walk_pmf(law, n)
            assert (t.lo, t.masses.tolist(), t.exact_hi) == (-n, [1.0], -n)

    def test_two_steps_is_self_convolution(self, geometric):
        t2 = ex.walk_pmf(geometric, 2)
        nu = geometric.probabilities(81)  # nu(-1..80) = mu(0..81)
        direct = np.convolve(nu, nu)
        assert np.allclose(t2.masses[: direct.size], direct[: t2.masses.size], atol=1e-15)

    def test_mass_accounting(self, geometric, stable15):
        for law, exact_hi in ((geometric, None), (stable15, 500)):
            t = ex.walk_pmf(law, 64, exact_hi)
            assert abs(t.masses.sum() + t.truncated_mass - 1.0) < 1e-12

    def test_protected_window_exactness(self, stable15):
        # heavy tail: a clipped table must still be exact below its window top
        wide = ex.walk_pmf(stable15, 12, 4000)
        narrow = ex.walk_pmf(stable15, 12, 40)
        ks = np.arange(-12, 41)
        assert np.allclose(wide.probs(ks), narrow.probs(ks), atol=1e-15, rtol=0)
        assert narrow.truncated_mass > 1e-6  # plenty of mass really was clipped

    def test_wide_table_has_no_noise_mass(self, geometric):
        # FFT rounding in the far tail once added 1.6e-12 of spurious mass here
        n = 60000
        t = ex.walk_pmf(geometric, n)
        assert abs(float(t.masses.sum()) + t.truncated_mass - 1.0) <= ex.MASS_TOL
        assert t.hi < 10 * math.sqrt(2 * n)  # entries below the rounding bound are trimmed
        want = nbinom.pmf(np.arange(t.lo, t.hi + 1) + n, n, 0.5)  # W_n + n ~ NegBin(n, 1/2)
        assert np.max(np.abs(t.masses - want)) <= 1e-15

    def test_window_below_minimum_rejected(self, geometric):
        for exact_hi in (-5, -6):  # W_4 >= -4
            with pytest.raises(ex.ExactLawError, match="minimum"):
                ex.walk_pmf(geometric, 4, exact_hi)


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
        # the killed walk's per-step loss (blocks of 16 steps) against the branching
        # recursion, the one-step oracle and P[W_m = -1] / m from one W_m table each
        for law, n_max in itertools.product((geometric, stable15), (1, 15, 16, 17, 48, 4096)):
            block = np.append(0.0, ex._killed_walk(law, n_max, 0)[2])
            assert np.max(np.abs(block - ex.progeny_rho(law, n_max))) < 1e-13
            ex.progeny_pmf(law, n_max)  # raises on disagreement
            if n_max > 48:
                continue
            one_step = [arr[-1 - off] / m if 0 <= -1 - off < arr.size else 0.0
                        for m, off, arr in stepwise_walk_tables(law, n_max, 0)]
            assert np.max(np.abs(block[1:] - one_step)) < 1e-13
            by_table = [ex.walk_pmf(law, m, 0).prob(-1) / m for m in range(1, n_max + 1)]
            assert np.max(np.abs(block[1:] - by_table)) < 1e-13

    def test_stable_size_two_exactly_impossible(self):
        # mu(1) = 0, so P[zeta = 2] = mu(0) mu(1) is 0, never rounding noise of either sign
        for theta in [k / 100 for k in range(101, 200)]:
            law = make_stable_family(theta)
            assert ex.progeny_rho(law, 4)[2] == 0.0
            assert ex.progeny_pmf(law, 4).prob(2) == 0.0  # raised on a negative entry

    def test_explicit_law_recursion(self):
        law = make_explicit([0.5, 0.0, 0.5])
        rec = ex.progeny_pmf(law, 21)
        # binary trees: P[zeta = 2m+1] = catalan(m) * (1/2)^(2m+1)
        for m in range(0, 11):
            want = catalan(m) * 0.5 ** (2 * m + 1)
            assert abs(rec.prob(2 * m + 1) - want) < 1e-14
            if 2 * m <= 20 and m > 0:
                assert rec.prob(2 * m) == 0.0


class TestKemperman:
    def test_identity_small_n(self, geometric, stable15):
        # (j/n) P[W_n = -j] versus the j-fold convolution of the recursion law
        for law in (geometric, stable15, stable15.truncate(40)):
            for n in range(1, 15):
                conv_route, _ = rho_power_profiles(law, n, min(n, 4))
                for j in range(1, 5):
                    walk_route = ex.phi(law, n, j)
                    assert abs(walk_route - (conv_route[j - 1] if j <= n else 0.0)) <= 1e-12


class TestPhi:
    def test_phi_equals_progeny(self, geometric):
        assert abs(ex.phi(geometric, 3, 1) - 1 / 16) < 1e-15

    def test_phi_star_trivial_and_value(self, geometric):
        for j in (1, 2, 5):
            assert ex.phi_star(geometric, 1, j) == 1.0
        assert abs(ex.phi_star(geometric, 2, 1) - 0.5) < 1e-15

    def test_phi_star_nonincreasing_in_n(self, geometric, stable15):
        for law in (geometric, stable15):
            for j in (1, 2, 3):
                vals = [ex.phi_star(law, n, j) for n in range(1, 20)]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_preconditions(self, geometric):
        with pytest.raises(ex.ExactLawError):
            ex.phi(geometric, 3, 0)
        with pytest.raises(ex.ExactLawError):
            ex.phi_star(geometric, 0, 1)
        with pytest.raises(ex.ExactLawError):
            ex.phi_star(geometric, 4, np.array([2, 0]))

    def test_array_j_matches_scalar(self, stable15):
        js = np.array([[1, 5], [9, 40]])
        for f in (ex.phi, ex.phi_star):
            got = f(stable15, 9, js)
            assert got.shape == js.shape
            assert np.array_equal(got, [[f(stable15, 9, int(j)) for j in row] for row in js])


PHI_STAR_P = [1, 2, J - 1, J, J + 1, 128, 2048]


class TestPhiStarBlock:
    @pytest.mark.parametrize("law_name", sorted(MEANDER_LAWS))
    def test_against_both_oracles(self, law_name):
        # the block recursion against the rho-power loop and against the sum of
        # Kemperman terms over q < p, at the block edges and at the suites' p
        law = MEANDER_LAWS[law_name]
        by_walk = kemperman_phi_star(law, PHI_STAR_P)
        for p in PHI_STAR_P:
            got = ex.phi_star(law, p, np.arange(1, p + 1))
            _, by_power = rho_power_profiles(law, p, p)
            assert np.max(np.abs(got - by_power)) <= 1e-12
            assert np.max(np.abs(got - by_walk[p])) <= 1e-12

    @pytest.mark.parametrize("law_name", sorted(MEANDER_LAWS))
    def test_monotone_and_trivial(self, law_name):
        law = MEANDER_LAWS[law_name]
        js = np.arange(1, 300)
        prev = np.ones(js.size)
        for p in range(1, 2 * J + 3):
            cur = ex.phi_star(law, p, js)
            assert np.all(cur <= prev + 1e-15)  # nonincreasing in p
            assert np.all(cur[js >= p] == 1.0)  # zeta_j >= j >= p
            prev = cur


class TestDiscreteRatio:
    def test_nonnegative(self, geometric):
        for n, a in itertools.product((6, 10, 14), (0.3, 0.5)):
            assert np.all(ex.discrete_ratio_window(geometric, n, a, 0, 3) >= 0.0)

    def test_pinned_value_n6(self, geometric):
        # from Catalan closed forms: phi_3(1) = 1/16, phi_6(1) = 21/1024,
        # phi*_3(1) = 3/8, phi*_6(1) = 63/256, so D = (64/21) / (32/21) = 2
        d = ex.discrete_ratio_window(geometric, 6, 0.5, 0, 0)
        assert d.shape == (1,) and abs(d[0] - 2.0) < 1e-12

    def test_weighted_mean_is_one(self, geometric, stable15):
        # E[D | zeta >= n] is the total mass of P[W_{n/2} = . | zeta = n]
        for law in (geometric, stable15):
            for n in (8, 32, 64):
                mass = float(ex.conditioned_walk_marginal(law, n, n // 2).masses.sum())
                assert abs(mass - 1.0) < 1e-11

    def test_refused_where_size_is_impossible(self, stable15):
        # mu(1) = 0 for theta = 1.5, so P[zeta = 2] = mu(1) mu(0) = 0 and D is undefined
        with pytest.raises(ex.ExactLawError, match=r"P\[zeta = 2\] = 0"):
            ex.discrete_ratio_window(stable15, 2, 0.5, 0, 0)

    def test_preconditions(self, geometric):
        with pytest.raises(ex.ExactLawError):
            ex.discrete_ratio_window(geometric, 6, 1.5, 0, 0)
        with pytest.raises(ex.ExactLawError):
            ex.discrete_ratio_window(geometric, 6, 0.5, -1, -1)

    @pytest.mark.parametrize("a,k_lo,k_hi", [
        (0.0, 1, 3), (-0.2, 1, 3), (1.0, 1, 3), (0.5, -1, 3), (0.5, 3, 1),
    ])
    def test_window_preconditions(self, geometric, a, k_lo, k_hi):
        with pytest.raises(ex.ExactLawError):
            ex.discrete_ratio_window(geometric, 64, a, k_lo, k_hi)


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
            mea = ex.meander_pmf(law, m, 144)
            rho = ex.progeny_rho(law, m)
            survival = 1.0 - float(rho[: m + 1].sum())
            assert abs(float(mea.masses.sum()) + mea.truncated_mass - survival) < 1e-12

    def test_table_passes_mass_check(self, geometric, stable15):
        for law in (geometric, stable15):
            mea = ex.meander_pmf(law, 48, 144)
            assert isinstance(mea, ex.PmfTable) and mea.truncated_mass >= 0.0
            ex.PmfTable(mea.offset, mea.masses.copy(), mea.truncated_mass, mea.exact_hi)
            with pytest.raises(ex.ExactLawError):  # mass above 1 is refused
                ex.PmfTable(mea.offset, mea.masses.copy(), 1.0, mea.exact_hi)

    def test_markov_identity(self, geometric):
        # sum_k meander_m(k) phi_rest(k+1) = P[zeta = n]
        n, m = 40, 20
        mea = ex.meander_pmf(geometric, m, 60)
        ks = np.arange(mea.lo, mea.hi + 1)
        lhs = float((mea.masses * ex.phi(geometric, n - m, ks + 1)).sum())
        assert abs(lhs - ex.progeny_rho(geometric, n)[n]) < 1e-14

    def test_against_killed_walk_oracle(self, geometric, stable15):
        # steps above hi_eval + m cannot end inside [0, hi_eval], so nu on
        # [-1, 40] makes the dict oracle exact on the whole table
        hi_eval = 12
        for law in (geometric, stable15):
            nu = {k: float(p) for k, p in zip(range(-1, 41), law.probabilities(41))}
            for m in range(1, 7):
                mea = ex.meander_pmf(law, m, hi_eval)
                assert (mea.lo, mea.exact_hi) == (0, hi_eval)
                oracle = brute_meander_pmf(nu, m)
                want = np.array([oracle.get(k, 0.0) for k in range(mea.lo, mea.hi + 1)])
                assert np.max(np.abs(mea.masses - want)) < 1e-15

    @pytest.mark.parametrize("law_name", sorted(MEANDER_LAWS))
    @pytest.mark.parametrize("m", [1, J - 1, J, J + 1, 2048])
    def test_block_matches_stepwise(self, law_name, m):
        # the ratio suite's window: hi_eval = n - m, protect = n at a = 1/2
        self.check_block(MEANDER_LAWS[law_name], m, m, 2 * m)

    @pytest.mark.parametrize("law_name,hi_eval", [("geometric", 3200), ("theta1.5", 9768)])
    def test_block_matches_stepwise_marginal_window(self, law_name, hi_eval):
        # the marginal's window at n = 4096: hi_eval = 50 B_n
        self.check_block(MEANDER_LAWS[law_name], 2048, hi_eval, 4096)

    @staticmethod
    def check_block(law, m, hi_eval, protect):
        want, want_clipped = stepwise_meander(law, m, hi_eval, protect)
        mea = ex.meander_pmf(law, m, hi_eval + protect - m)
        assert (mea.lo, mea.exact_hi) == (0, hi_eval + protect - m)
        size = max(want.size, mea.masses.size)
        got = np.pad(mea.masses, (0, size - mea.masses.size))
        assert np.max(np.abs(got - np.pad(want, (0, size - want.size)))) <= 1e-16
        assert abs(mea.truncated_mass - want_clipped) <= 1e-13
        if m == 2048:
            survival = 1.0 - float(ex.progeny_rho(law, m)[: m + 1].sum())
            assert abs(float(mea.masses.sum()) + mea.truncated_mass - survival) <= 1e-12


class TestConditionedWalkMarginal:
    def test_against_enumeration(self, geometric, stable15):
        # P[W_m = k | zeta = n] read off every conditioned tree, for every m < n
        for law, n in ((geometric, 8), (stable15, 9), (make_explicit([0.09, 0.85, 0.03, 0.03]), 9)):
            walks = [(np.concatenate([[0], np.cumsum(t.child_counts - 1)]), p)
                     for t, p in ex.enumerate_conditioned(law, n)]
            for m in range(1, n):
                want = np.zeros(n - m)
                for w, p in walks:
                    want[w[m]] += p
                tab = ex.conditioned_walk_marginal(law, n, m)
                assert (tab.lo, tab.hi, tab.exact_hi) == (0, n - m - 1, n - m - 1)
                # absolute rounding of order 1e-16 in the tables, divided by P[zeta = n]
                assert np.max(np.abs(tab.masses - want)) < 1e-13

    def test_mass_one_at_large_n(self, geometric, stable15):
        for law in (geometric, stable15):
            tab = ex.conditioned_walk_marginal(law, 1000, 500)
            assert abs(float(tab.masses.sum()) - 1.0) < 1e-12

    @pytest.mark.parametrize("n, m", [(5, 0), (5, 5), (1, 1)])
    def test_preconditions(self, geometric, n, m):
        with pytest.raises(ex.ExactLawError, match="1 <= m < n"):
            ex.conditioned_walk_marginal(geometric, n, m)

    def test_impossible_size_refused(self, stable15):
        # the stable family has mu(1) = 0: no tree has 2 vertices
        with pytest.raises(ex.ExactLawError, match="P\\[zeta = 2\\] = 0"):
            ex.conditioned_walk_marginal(stable15, 2, 1)


class TestTableCache:
    def test_each_table_built_once(self, geometric):
        from gwtrees import limits as lim
        from gwtrees.offspring import make_geometric

        law = make_geometric(0.5)  # a fresh object: none of its tables is cached yet
        caches = (ex.meander_pmf, ex._walk_table, ex._phi_star_profile)
        before = [c.cache_info() for c in caches]
        lim.ratio_vs_gamma_experiment(law, (1024,))
        lim.lukasiewicz_marginal_experiment(law, 1024)
        (mea0, walk0, star0), (mea1, walk1, star1) = before, [c.cache_info() for c in caches]
        # meanders: the ratio's conditioned marginal (m = 512, exact on [0, 512]) and
        # the marginal's wider one, which also serves the marginal's D-weighted mean
        assert (mea1.misses - mea0.misses, mea1.hits - mea0.hits) == (2, 0)
        # phi at p = 512 reads one W_512 table: the ratio window builds it, the
        # ratio's conditioned marginal and the marginal's D window read it
        assert (walk1.misses - walk0.misses, walk1.hits - walk0.hits) == (1, 2)
        # one phi* profile at p = 512: the ratio window builds it, the marginal's
        # weights and its D window read it
        assert (star1.misses - star0.misses, star1.hits - star0.hits) == (1, 2)

        js = np.arange(1, 201)  # beyond j = p, phi = 0 and phi* = 1 (zeta_j >= j)
        phi_wide, phistar_wide = ex.phi(geometric, 64, js), ex.phi_star(geometric, 64, js)
        phi_p, phistar_p = ex.phi(geometric, 64, js[:64]), ex.phi_star(geometric, 64, js[:64])
        assert np.array_equal(phi_wide, np.concatenate([phi_p, np.zeros(136)]))
        assert np.array_equal(phistar_wide, np.concatenate([phistar_p, np.ones(136)]))

        mea = ex.meander_pmf(geometric, 8, 16)
        assert mea is ex.meander_pmf(geometric, 8, 16)
        # positional, keyword and resolved-default calls share one cache entry
        assert ex.walk_pmf(geometric, 64, exact_hi=0) is ex.walk_pmf(geometric, 64, 0)
        full = ex.walk_pmf(geometric, 64)
        assert full is ex.walk_pmf(geometric, 64, exact_hi=full.exact_hi)
        cached = (mea.masses, ex.progeny_rho(geometric, 64),
                  ex.walk_pmf(geometric, 64, 0).masses, ex._phi_star_profile(geometric, 64))
        assert not any(arr.flags.writeable for arr in cached)

    def test_sampler_law_reads_phi_table(self):
        from gwtrees.offspring import make_geometric
        from oracles import analytic_sampler_law

        law = make_geometric(0.5)  # fresh: nothing cached
        ex.phi(law, 5, 1)
        before = ex._walk_table.cache_info()
        analytic_sampler_law(law, 5)
        after = ex._walk_table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)

    def test_standalone_marginal_builds_one_meander(self):
        from gwtrees import limits as lim
        from gwtrees.offspring import make_stable_family

        law = make_stable_family(1.5)  # fresh: nothing cached
        before = ex.meander_pmf.cache_info()
        rep = lim.lukasiewicz_marginal_experiment(law, 512)
        after = ex.meander_pmf.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)
        assert abs(rep.statistics["exact_identity_mean"] - 1.0) <= 1e-9
