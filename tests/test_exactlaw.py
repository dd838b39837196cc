import itertools
import math
import re
import tracemalloc
from collections import ChainMap

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.stats import nbinom

from gwtrees import exactlaw as ex
from gwtrees import limits as lim
from gwtrees.offspring import OffspringLaw, make_explicit, make_geometric, make_stable_family


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


def untrimmed_fft(a, b):
    """Full convolution on scipy's real FFT, negative noise clipped at 0, nothing trimmed."""
    size = a.size + b.size - 1
    L = sp_fft.next_fast_len(size, real=True)
    return np.maximum(sp_fft.irfft(sp_fft.rfft(a, L) * sp_fft.rfft(b, L), L)[:size], 0.0)


def untrimmed_conv(a, b):
    """Full convolution, direct below a fixed size (the oracles' own crossover)."""
    if a.size * b.size <= 1 << 20 or min(a.size, b.size) <= 96:
        return np.convolve(a, b)
    return untrimmed_fft(a, b)


def geometric_progeny_loop(p, n):
    """Oracle: rho(0..n) by rho(m+1) = p sum_{i=1..m} rho(i) rho(m+1-i) from
    rho(1) = 1 - p, the coefficient recursion of R = (1-p) z + p R^2."""
    rho = np.zeros(n + 1)
    rho[1] = 1.0 - p
    for m in range(1, n):
        rho[m + 1] = p * float(np.dot(rho[1 : m + 1], rho[m:0:-1]))
    return rho


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


def direct_by_rule(na, nb):
    """Whether _conv's cost rule sums tables of these sizes directly."""
    return na * nb <= ex.DIRECT_COST * (na + nb)


def normalized_tables(rng, *sizes):
    return [x / x.sum() for x in (rng.random(size) for size in sizes)]


class TestConv:
    def test_fft_branch_matches_direct(self):
        a, b = normalized_tables(np.random.default_rng(0), 3000, 1200)
        assert not direct_by_rule(a.size, b.size)  # the FFT branch
        got = ex._conv(a, b)
        want = np.convolve(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        # numpy's FFT at the scipy length reproduces the scipy route bit for bit
        assert np.array_equal(got, untrimmed_fft(a, b)[: got.size])

    @pytest.mark.parametrize("nb", [ex.DIRECT_COST + 1, 300, 1024, 1889, 5000])
    def test_branches_agree_at_the_rule(self, nb):
        # the largest table summed directly against nb entries, and one entry more
        na = ex.DIRECT_COST * nb // (nb - ex.DIRECT_COST)
        assert direct_by_rule(na, nb) and not direct_by_rule(na + 1, nb)
        rng = np.random.default_rng(nb)
        for size, route in ((na, np.convolve), (na + 1, untrimmed_fft)):
            a, b = normalized_tables(rng, size, nb)
            want = np.convolve(a, b)
            for x, y in ((a, b), (b, a)):
                got = ex._conv(x, y)
                assert np.array_equal(got, route(x, y))  # the branch the rule picks
                assert np.max(np.abs(got - want)) <= 1e-15

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

    def test_rounding_is_not_truncation(self, geometric):
        # on its full support nothing is clipped: the table lacks only the step law's
        # tail above the step table, once per step; its total's FFT rounding (1 - sum
        # reads 3.5e-13) is not truncation
        n = 60000
        t = ex.walk_pmf(geometric, n)
        cap = geometric.support_cap(1e-18)  # the step table holds mu(0..cap)
        assert t.exact_hi == (cap - 1) * n  # the full support
        step_tail = geometric.tail_mass(cap)
        assert t.truncated_mass == pytest.approx(n * step_tail, rel=1e-9, abs=0.0)
        explicit = ex.walk_pmf(make_explicit([0.3, 0.4, 0.3]), 500)  # no tail at all
        assert explicit.truncated_mass == 0.0 and explicit.exact_hi == 500

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
        # the killed walk's per-step loss (blocks of J steps, edges included) against the
        # branching recursion, the one-step oracle and P[W_m = -1] / m from one W_m table each
        sizes = (1, J - 1, J, J + 1, 48, 2 * J + 1, 4096)
        for law, n_max in itertools.product((geometric, stable15), sizes):
            block = np.append(0.0, ex._killed_walk(law, n_max, 0)[2])
            assert np.max(np.abs(block - ex.progeny_rho(law, n_max))) < 1e-13
            ex.progeny_pmf(law, n_max)  # raises on disagreement
            if n_max > 2 * J + 1:
                continue
            one_step = [arr[-1 - off] / m if 0 <= -1 - off < arr.size else 0.0
                        for m, off, arr in stepwise_walk_tables(law, n_max, 0)]
            assert np.max(np.abs(block[1:] - one_step)) < 1e-13
            by_table = [ex.walk_pmf(law, m, 0).prob(-1) / m for m in range(1, n_max + 1)]
            assert np.max(np.abs(block[1:] - by_table)) < 1e-13

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.45])
    def test_geometric_closed_form_matches_the_recursion(self, p):
        n = 5000
        got = ex.progeny_rho(make_geometric(p), n)
        assert np.max(np.abs(got - geometric_progeny_loop(p, n))) <= 1e-15

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

    def test_oversized_explicit_recursion_refused_before_either_route(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the killed walk ran")

        monkeypatch.setattr(ex, "_killed_walk", no_walk)
        law = make_explicit([0.5] + [0.5 / 200] * 200)
        want = ("explicit-law progeny recursion too large: n = 3300 and K = 200 exceed the "
                "bound n^2 max(K, 1) <= 2^31")
        with pytest.raises(ex.ExactLawError, match=f"^{re.escape(want)}$"):
            ex.progeny_pmf(law, 3300)
        assert law.tables["progeny"].steps == 0  # nor was the recursion extended


PROGENY_LAWS = {  # factories: each test builds fresh laws, whose recursion is not cached yet
    "geometric": lambda: make_geometric(0.5),
    "theta1.2": lambda: make_stable_family(1.2),
    "theta1.5": lambda: make_stable_family(1.5),
    "binary": lambda: make_explicit([0.5, 0.0, 0.5]),
}
PROGENY_SIZES = [0, 1, 2, J - 1, J, J + 1, 2 * J + 1, 1000, 2048]


class TestProgenyTable:
    @pytest.mark.parametrize("law_name", sorted(PROGENY_LAWS))
    def test_resumed_prefixes_equal_fresh_runs(self, law_name):
        make = PROGENY_LAWS[law_name]
        direct = {n: ex.progeny_rho(make(), n).copy() for n in PROGENY_SIZES}
        interleaved = [J, 2048, 1, 2 * J + 1, 0, 1000, J - 1, 2, J + 1]
        for order in (PROGENY_SIZES, PROGENY_SIZES[::-1], interleaved):
            law = make()
            for n in order:
                got = ex.progeny_rho(law, n)
                assert got.shape == (n + 1,) and np.array_equal(got, direct[n])

    @pytest.mark.parametrize("law_name", sorted(PROGENY_LAWS))
    def test_prefixes_are_read_only(self, law_name):
        law = PROGENY_LAWS[law_name]()
        short = ex.progeny_rho(law, J)
        long = ex.progeny_rho(law, 4 * J)  # resumed: the table is replaced, not written
        for arr in (short, long, ex.progeny_rho(law, 2)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.5
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert np.array_equal(short, long[: J + 1])

    def test_suites_run_the_recursion_once_per_law(self, monkeypatch):
        from gwtrees import limits as lim

        geo, heavy = PROGENY_LAWS["geometric"](), PROGENY_LAWS["theta1.5"]()
        builds = count_builds(monkeypatch, "_ProgenyRecursion")
        for suite in ("progeny", "ratio", "marginal"):
            lim.run_suite(suite, geo, heavy)
        assert builds["_ProgenyRecursion"] == 2
        for law in (geo, heavy):
            table = law.tables["progeny"]
            # rho(2)..rho(4096), each computed once although 2048 came before 4096
            assert (table.rho.size - 1, table.steps) == (4096, 4095)

    @pytest.mark.parametrize("law_name", sorted(PROGENY_LAWS))
    def test_mass_check_across_a_resume_point(self, law_name):
        make = PROGENY_LAWS[law_name]
        law = make()
        ex.progeny_rho(law, J + 3)  # the next request resumes mid-block
        table = ex.progeny_pmf(law, 3 * J)  # raises if the routes disagree beyond MASS_TOL
        assert np.array_equal(table.masses, ex.progeny_rho(make(), 3 * J)[1:])

    def test_negative_size_refused(self, geometric):
        with pytest.raises(ex.ExactLawError, match="n_max"):
            ex.progeny_rho(geometric, -1)


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


class TestBlockTables:
    @pytest.mark.parametrize("law_name", sorted(MEANDER_LAWS))
    @pytest.mark.parametrize("top", [J - 1, J, 4 * J])
    def test_matrix_layout(self, law_name, top):
        # row J - s holds P[W_s = k] at column k + J, zero outside its built length;
        # kem reads the first passages off the same rows.  A fresh law, so that the
        # set is built at this top: a law already used may hold a wider one
        law = MEANDER_LAWS[law_name]
        blocks = ex._block_tables(OffspringLaw(law.family, law.param, law.probs
                                               if law.family == "explicit" else None), top)
        rows, lens, kem = blocks.rows, blocks.lens, blocks.kem
        assert blocks.top == top and len(lens) == J + 1
        assert rows.shape[0] == J and kem.shape == (J, J)
        for s, off, want in stepwise_walk_tables(MEANDER_LAWS[law_name], J, top + 1):
            row = rows[J - s]
            got = row[J - s : J - s + lens[s]]
            assert not row[: J - s].any() and not row[J - s + lens[s] :].any()
            n = top + 2 + s  # [-s, top + 1]
            got, want = got[:n], want[:n]
            size = max(got.size, want.size)
            diff = np.pad(got, (0, size - got.size)) - np.pad(want, (0, size - want.size))
            assert np.max(np.abs(diff)) <= 1e-15
            xs = np.arange(J)
            first = np.where(xs < s, (xs + 1) / s * want[np.maximum(s - 1 - xs, 0)], 0.0)
            assert np.max(np.abs(kem[s - 1] - first)) <= 1e-15


PHI_STAR_P = [1, 2, J - 1, J, J + 1, 2 * J + 1, 128, 2048]


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
        rep = lim.check_absolute_continuity(geometric, n, a)
        assert rep.passed
        assert rep.statistics["max_discrepancy"] <= 1e-10
        assert abs(rep.statistics["rhs_total"] - 1.0) <= 1e-10  # f = 1 case

    @pytest.mark.parametrize("n,a", [(4, 0.5), (6, 0.5), (6, 0.25)])
    def test_truncated_stable(self, stable15, n, a):
        rep = lim.check_absolute_continuity(stable15.truncate(40), n, a)
        assert rep.passed
        assert rep.statistics["max_discrepancy"] <= 1e-10

    def test_oversized_prefix_enumeration_refused_first(self, geometric, monkeypatch):
        # 13 step values over m = 11 steps: refused before any tree is listed
        def no_enumeration(*args):
            raise AssertionError("trees were enumerated before the size guard")

        monkeypatch.setattr(ex, "enumerate_conditioned", no_enumeration)
        with pytest.raises(ex.ExactLawError, match="prefix enumeration too large"):
            lim.check_absolute_continuity(geometric, 13, 0.9)


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

    @pytest.mark.parametrize("law_name,m,exact_hi", [("geometric", 5, -5), ("theta1.5", 3, -2),
                                                     ("geometric", 5, -1)])
    def test_window_below_zero_refused(self, law_name, m, exact_hi):
        with pytest.raises(ex.ExactLawError, match="exact_hi >= 0"):
            ex.meander_pmf(MEANDER_LAWS[law_name], m, exact_hi)

    @pytest.mark.parametrize("make,m,exact_hi,bound_mib", [
        (lambda: make_stable_family(1.5), 2048, 9768, 4.2),
        (lambda: make_geometric(0.5), 2048, 3200, 0.7),
    ], ids=["theta1.5", "geometric"])
    def test_block_matrix_memory(self, make, m, exact_hi, bound_mib):
        # the block matrix replaces the per-step tables and is as wide as W_J can
        # be, not as the ceiling: a matrix top + 2J wide peaks at about 1.5 MiB on
        # the geometric law.  A first build on another fresh law runs the lazy
        # imports and fills the module caches, so the traced peak counts only this
        # build's own arrays.
        ex.meander_pmf(make(), m, exact_hi)
        law = make()
        tracemalloc.start()
        try:
            ex.meander_pmf(law, m, exact_hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    @pytest.mark.parametrize("law_name", sorted(MEANDER_LAWS))
    @pytest.mark.parametrize("m", sorted({1, 15, 16, 17, J - 1, J, J + 1, 2 * J + 1, 2048}))
    def test_block_matches_stepwise(self, law_name, m):
        # the ratio suite's window: hi_eval = n - m, protect = n at a = 1/2; m at the
        # block edges, and m = 15..17 as one short block
        self.check_block(MEANDER_LAWS[law_name], m, m, 2 * m)

    @pytest.mark.parametrize("law_name,hi_eval", [("geometric", 3200), ("theta1.5", 9768)])
    def test_block_matches_stepwise_marginal_window(self, law_name, hi_eval):
        # the marginal's window at n = 4096, hi_eval = 50 B_n, widened by rest
        self.check_block(MEANDER_LAWS[law_name], 2048, hi_eval, 4096)

    @pytest.mark.parametrize("law_name,hi_eval", [("geometric", 3200), ("theta1.5", 9768)])
    def test_block_matches_stepwise_marginal_exact_window(self, law_name, hi_eval):
        # the table the marginal reads at n = 4096: exact on [0, 50 B_n], no wider
        self.check_block(MEANDER_LAWS[law_name], 2048, hi_eval, 2048)

    def test_walk_that_leaves_every_ceiling(self):
        # a supercritical wide law drifts above the falling ceiling until the FFT trims
        # the last alive entry (m = 2093 is the first such m); later steps kill nothing
        law, m = make_explicit([0.5] + [0.5 / 200] * 200), 2093
        self.check_block(law, m, 0, m)
        mea = ex.meander_pmf(law, m, 0)
        assert not mea.masses.any()
        progeny = ex.progeny_pmf(law, m)  # its two routes agree at MASS_TOL
        survival = 1.0 - float(progeny.masses.sum())
        assert abs(mea.truncated_mass - survival) <= ex.MASS_TOL

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


def count_builds(monkeypatch, *names, module=ex):
    """Wrap each named builder of ``module`` (exactlaw by default) so that its calls
    are counted."""
    builds = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            builds[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return builds


class TestTableCache:
    def test_each_table_built_once(self, monkeypatch):
        from gwtrees import limits as lim
        from gwtrees.offspring import make_geometric

        law = make_geometric(0.5)  # a fresh object: none of its tables is kept yet
        builds = count_builds(monkeypatch, "walk_pmf", "_build_blocks", "_killed_walk",
                              "phi_star", "_phi_star_profile")
        lim.ratio_vs_gamma_experiment(law, (1024,))
        lim.lukasiewicz_marginal_experiment(law, 1024)
        # one absolute-continuity step at (1024, 1/2), which the marginal reads: one
        # meander (m = 512, exact on [0, 50 B_n]), whose block set phi*_512 reads a
        # prefix of, and one W_512 table, which phi reads for the D window
        assert builds["_killed_walk"] == builds["_build_blocks"] == builds["walk_pmf"] == 1
        # one phi* profile at p = 512: the step's weights build it, its D window reads it
        star_builds = builds["_phi_star_profile"]
        assert (star_builds, builds["phi_star"] - star_builds) == (1, 1)

        js = np.arange(1, 201)  # beyond j = p, phi = 0 and phi* = 1 (zeta_j >= j)
        phi_wide, phistar_wide = ex.phi(law, 64, js), ex.phi_star(law, 64, js)
        phi_p, phistar_p = ex.phi(law, 64, js[:64]), ex.phi_star(law, 64, js[:64])
        assert np.array_equal(phi_wide, np.concatenate([phi_p, np.zeros(136)]))
        assert np.array_equal(phistar_wide, np.concatenate([phistar_p, np.ones(136)]))

        mea = ex.meander_pmf(law, 8, 16)
        kept = (mea.masses, ex.progeny_rho(law, 64), ex.walk_pmf(law, 64, 0).masses,
                law.tables["phi_star"], law.tables["ac"].weight, law.tables["ac"].ratio)
        assert not any(arr.flags.writeable for arr in kept)

    def test_every_kept_kind_is_read_again(self, monkeypatch):
        # a kind earns its key in ``law.tables`` only if a later call reads the kept
        # table: over a cold default pass of the four exact suites, the fast gap suite
        # and two draws from a subcritical law, each kind's builder runs fewer times
        # than its entry point is called (a critical law is its own tilt, so only the
        # subcritical law's calls count for "tilt")
        from gwtrees import sampler as sa
        from test_import import TABLE_KINDS

        routes = {  # kind: (module, entry point), (module, builder)
            "phi_star": ((ex, "phi_star"), (ex, "_phi_star_profile")),
            "blocks": ((ex, "_block_tables"), (ex, "_build_blocks")),
            "ac": ((lim, "_ac_step"), (ex, "meander_pmf")),
            "progeny": ((ex, "progeny_rho"), (ex, "extensions")),
            "steps": ((sa, "_step_sampler"), (sa, "_StepSampler")),
            "tilt": ((sa, "_critical_tilt"), (sa, "tilt_to_critical")),
        }
        assert set(routes) == TABLE_KINDS
        own = {"extensions": 0, "_critical_tilt": 0}  # counted by the two wrappers below
        calls = ChainMap(own, count_builds(monkeypatch, "walk_pmf", "_killed_walk"),
                         *(count_builds(monkeypatch, name, module=module)
                           for pair in routes.values() for module, name in pair
                           if name not in own))
        extend, critical_tilt = ex._ProgenyRecursion.extend, sa._critical_tilt

        def counted_extend(self, law, n_max):
            calls["extensions"] += n_max > self.rho.size - 1  # the table grows
            return extend(self, law, n_max)

        def subcritical_tilt(law):
            calls["_critical_tilt"] += not law.is_critical
            return critical_tilt(law)

        monkeypatch.setattr(ex._ProgenyRecursion, "extend", counted_extend)
        monkeypatch.setattr(sa, "_critical_tilt", subcritical_tilt)

        geo, heavy = make_geometric(0.5), make_stable_family(1.5)  # fresh: nothing kept
        for suite in ("llt", "progeny", "ratio", "marginal"):
            lim.run_suite(suite, geo, heavy)
        # the same builds as when each law kept its widest W_n: W_n tables, block sets,
        # phi* profiles and killed walks
        assert (calls["walk_pmf"], calls["_build_blocks"], calls["_phi_star_profile"],
                calls["_killed_walk"]) == (14, 6, 6, 6)
        lim.run_suite("gap", geo, heavy, fast=True)
        sub = make_explicit([0.5, 0.2, 0.3])  # mean 0.8
        for seed in (0, 1):
            sa.sample_conditioned(sub, 50, sa.derive_rng(seed))
        for kind, ((_, entry), (_, builder)) in routes.items():
            assert 0 < calls[builder] < calls[entry], (kind, calls[builder], calls[entry])

    def test_standalone_marginal_builds_one_meander(self, monkeypatch):
        from gwtrees import limits as lim
        from gwtrees.offspring import make_stable_family

        law = make_stable_family(1.5)  # fresh: nothing kept
        builds = count_builds(monkeypatch, "_killed_walk")
        rep = lim.lukasiewicz_marginal_experiment(law, 512)
        assert builds["_killed_walk"] == 1
        assert abs(rep.statistics["exact_identity_mean"] - 1.0) <= 1e-9

    def test_tables_die_with_the_law(self):
        # a fresh interpreter, so that nothing else holds these laws: once a law goes,
        # by reference counting alone, every table kept on it goes too, exact tables,
        # absolute-continuity step, block matrix, step sampler and a subcritical law's
        # tilt alike
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = ("import weakref\n"
                "from gwtrees import exactlaw as ex, limits as lim, sampler as sa\n"
                "from gwtrees.offspring import make_explicit, make_geometric\n"
                "law = make_geometric(0.5)\n"
                "lim.ratio_vs_gamma_experiment(law, (64,))\n"
                "lim.lukasiewicz_marginal_experiment(law, 64)\n"
                "ex.walk_pmf(law, 64, 0); ex.phi_star(law, 48, 1)\n"
                "ex.meander_pmf(law, 64, 64); ex.progeny_rho(law, 64)\n"
                "sa.sample_conditioned(law, 64, sa.derive_rng(0))\n"
                "sa.sample_gw(law, 100, sa.derive_rng(1))\n"
                "sub = make_explicit([0.5, 0.2, 0.3])  # mean 0.8: sampled through its tilt\n"
                "sa.sample_conditioned(sub, 50, sa.derive_rng(2))\n"
                "tab, tilt = law.tables, sub.tables['tilt']\n"
                "print(sorted(tab), sorted(sub.tables), sorted(tilt.tables), tab['steps'].n)\n"
                "refs = [weakref.ref(x) for x in (law, tab['phi_star'], tab['progeny'],\n"
                "        tab['ac'], tab['ac'].weight, tab['blocks'], tab['blocks'].rows,\n"
                "        tab['steps'], sub, tilt, tilt.tables['steps'])]\n"
                "del law, tab, sub, tilt\n"
                "print(sum(ref() is not None for ref in refs), ex._blocks_law())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ex.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split("\n")[:2] == [
            "['ac', 'blocks', 'phi_star', 'progeny', 'steps'] ['tilt'] "
            "['steps'] 100", "0 None"]


REUSE_LAWS = {  # each a fresh object per call, so that no table of it is cached yet
    "geometric": lambda: make_geometric(0.5),
    "theta1.5": lambda: make_stable_family(1.5),
    "capped": lambda: make_explicit([0.6, 0.25, 0.0, 0.0, 0.0, 0.15]),  # sigma^2 = 3
}
REUSE_TOL = 1e-14


def assert_same_table(got, want, unbooked=0.0):
    assert (got.offset, got.exact_hi) == (want.offset, want.exact_hi)
    size = max(got.masses.size, want.masses.size)
    diff = np.pad(got.masses, (0, size - got.masses.size)) - np.pad(
        want.masses, (0, size - want.masses.size))
    assert np.max(np.abs(diff)) <= REUSE_TOL
    assert abs(got.truncated_mass - want.truncated_mass) <= REUSE_TOL + unbooked


class TestTableReuse:
    """Tables resumed or read from a shared block set against fresh builds."""

    @pytest.mark.parametrize("law_name", sorted(REUSE_LAWS))
    def test_meander_grows_in_m_then_in_exact_hi(self, law_name, monkeypatch):
        # the killed walk grows in m, then in exact_hi at the last m, then a smaller m;
        # each table against a build on a law with nothing cached (built after the
        # reused ones: the one block set held would go first)
        make = REUSE_LAWS[law_name]
        law = make()
        builds = count_builds(monkeypatch, "_build_blocks")
        requests = ((64, 64), (65, 64), (256, 256), (256, 600), (100, 300))
        tables = [ex.meander_pmf(law, m, exact_hi) for m, exact_hi in requests]
        # every wider top builds its set; (100, 300), at top 400, reads the set of 856
        assert builds["_build_blocks"] == 4
        for (m, exact_hi), table in zip(requests, tables):
            assert_same_table(table, ex.meander_pmf(make(), m, exact_hi))

    @pytest.mark.parametrize("law_name", sorted(REUSE_LAWS))
    def test_walk_after_a_meander_matches_a_fresh_one(self, law_name):
        # the killed walk keeps no state: after a meander of the same law it walks from
        # step 0 on a wider block set, as on a fresh law, and its per-step loss still
        # agrees with the branching recursion
        law = REUSE_LAWS[law_name]()
        ex.meander_pmf(law, 96, 96)
        after = ex._killed_walk(law, 200, 0)[2]
        fresh = ex._killed_walk(REUSE_LAWS[law_name](), 200, 0)[2]
        assert np.max(np.abs(after - fresh)) <= REUSE_TOL
        ex.progeny_pmf(law, 200)  # the two routes still agree at MASS_TOL

    @pytest.mark.parametrize("law_name", sorted(REUSE_LAWS))
    def test_phi_star_reads_the_meanders_blocks(self, law_name, monkeypatch):
        make = REUSE_LAWS[law_name]
        law = make()
        ex.meander_pmf(law, 512, 512)  # block set at top 1024
        builds = count_builds(monkeypatch, "_build_blocks")
        ps = (20, 512)  # J = 19 < MEANDER_BLOCK, then a narrower top
        got = [ex.phi_star(law, p, np.arange(1, p + 1)) for p in ps]
        assert builds["_build_blocks"] == 0
        for p, profile in zip(ps, got):
            assert np.max(np.abs(profile - ex.phi_star(make(), p, np.arange(1, p + 1)))) <= REUSE_TOL

    @pytest.mark.parametrize("law_name", sorted(REUSE_LAWS))
    @pytest.mark.parametrize("top", [100, 700], ids=lambda top: f"{top}-{J}")  # top, block size
    def test_block_view_matches_a_fresh_set(self, law_name, top):
        # a narrower top reads the wider set the law holds, its rows cut at the narrower
        # top's own table length top + J + 2, as a fresh set at that top is built
        make = REUSE_LAWS[law_name]
        law = make()
        ex._block_tables(law, 700)  # the widest set first
        blocks = ex._block_tables(law, top)
        assert blocks.top == 700
        lens = [min(size, top + J + 2) for size in blocks.lens]
        fresh = ex._block_tables(make(), top)
        assert lens == fresh.lens and np.max(np.abs(blocks.kem - fresh.kem)) <= REUSE_TOL
        for s in range(1, J + 1):
            n = min(lens[s], top + 2 + s)  # W_s on [-s, top + 1]
            got = blocks.rows[J - s, J - s : J - s + n]
            assert np.max(np.abs(got - fresh.rows[J - s, J - s : J - s + n])) <= REUSE_TOL

    @pytest.mark.parametrize("law_name", sorted(REUSE_LAWS))
    def test_short_meander_reads_the_held_set(self, law_name, monkeypatch):
        # m < MEANDER_BLOCK: the walk takes its m steps in one block of the wider set
        # the law already holds, builds none, and matches a walk on a set of its own
        make = REUSE_LAWS[law_name]
        law = make()
        ex.meander_pmf(law, 256, 256)  # block set at top 512
        builds = count_builds(monkeypatch, "_build_blocks")
        requests = ((5, 10), (17, 40))
        got = [ex.meander_pmf(law, m, exact_hi) for m, exact_hi in requests]
        assert builds["_build_blocks"] == 0
        for (m, exact_hi), table in zip(requests, got):
            assert_same_table(table, ex.meander_pmf(make(), m, exact_hi))
