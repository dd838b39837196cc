import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import binom as binom_real
from scipy.special import gamma as gamma_fn

from gwtrees import offspring as off


class TestConstructor:
    def test_fields_are_family_param_probs(self):
        assert [f.name for f in dataclasses.fields(off.OffspringLaw)] == ["family", "param", "probs"]
        with pytest.raises(TypeError):  # theta, mean, variance, tail_constant are derived
            off.OffspringLaw("geometric", 0.5, theta=1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            off.make_geometric(0.5).theta = 1.5

    @pytest.mark.parametrize("family, param, probs", [
        ("mixture", None, [0.4, 0.2, 0.4]),  # unknown family
        (None, 0.5, None),
        ("geometric", 0.5, [0.5, 0.5]),  # probabilities on a closed form
        ("stable", 1.5, [0.5, 0.0, 0.5]),
        ("explicit", 0.5, [0.5, 0.5]),  # a param on an explicit law
        ("explicit", None, None),  # missing probabilities
        ("geometric", None, None),  # missing param
        ("stable", None, None),
        ("stable", "1.5", None),  # non-numeric param
        ("geometric", True, None),
        ("geometric", [0.5], None),
        ("geometric", 1.0, None),  # param out of range
        ("geometric", math.nan, None),
        ("stable", 2.0, None),
        ("stable", 1.0, None),
        ("stable", math.inf, None),
    ])
    def test_refusals(self, family, param, probs):
        with pytest.raises(off.LawError):
            off.OffspringLaw(family, param, probs)

    @staticmethod
    def explicit_moments(probs):
        k = np.arange(probs.size, dtype=float)
        mean = float(k @ probs)
        return mean, float((k - mean) ** 2 @ probs)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    def test_geometric_derived(self, p):
        law = off.make_geometric(p)
        cap = max(8, math.ceil(math.log(1e-18) / math.log(p)))
        assert np.array_equal(law.probs, (1.0 - p) * p ** np.arange(cap + 1))
        assert (law.theta, law.mean, law.variance, law.tail_constant) == (
            2.0, p / (1.0 - p), p / (1.0 - p) ** 2, None)

    @pytest.mark.parametrize("theta", [1.05, 1.5, 1.9])
    def test_stable_derived(self, theta):
        law = off.make_stable_family(theta)
        ratios = np.r_[(theta - 1.0) / 2.0, (np.arange(2, 256) - theta) / (np.arange(2, 256) + 1.0)]
        assert np.array_equal(law.probs, np.r_[1.0 / theta, 0.0, np.cumprod(ratios)])
        assert (law.theta, law.mean, law.variance, law.tail_constant) == (
            theta, 1.0, math.inf, (theta - 1.0) / math.gamma(2.0 - theta))

    @pytest.mark.parametrize("make", [
        lambda: off.make_explicit([0.3, 0.1, 0, 0.6, 0.0]),
        lambda: off.make_stable_family(1.5).truncate(40),
        lambda: off.tilt_to_critical(off.make_explicit([0.3, 0.1, 0, 0.6])),
    ], ids=["explicit", "truncated", "tilted"])
    def test_explicit_derived(self, make):
        law = make()
        assert law.family == "explicit" and law.param is None and law.probs[-1] > 0
        assert (law.theta, law.mean, law.variance, law.tail_constant) == (
            2.0, *self.explicit_moments(law.probs), None)

    def test_explicit_moments_by_hand(self):
        law = off.make_explicit([0.3, 0.1, 0, 0.6])
        assert np.array_equal(law.probs, [0.3, 0.1, 0.0, 0.6])
        assert law.mean == pytest.approx(1.9, abs=1e-15)  # 0.1 + 3 * 0.6
        assert law.variance == pytest.approx(5.5 - 1.9**2, abs=1e-14)  # E k^2 = 0.1 + 9 * 0.6


class TestGeometric:
    def test_pmf_values(self, geometric):
        assert np.allclose(geometric.probabilities(2), [0.5, 0.25, 0.125], atol=0, rtol=0)

    def test_mean_and_variance_series_oracle(self, geometric):
        # sum_k k^2 2^-(k+1) = 3, so var = 3 - 1^2 = 2
        k = np.arange(200)
        second_moment = float((k**2 * 0.5 ** (k + 1)).sum())
        assert abs(second_moment - 3.0) < 1e-14
        assert abs(geometric.mean - 1.0) < 1e-10
        assert abs(geometric.variance - (second_moment - 1.0)) < 1e-12

    def test_aperiodic_full_support(self, geometric):
        # 1 is a support point: a tree of every size
        assert geometric.child_count_sums == (1, (True,))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_parameter_out_of_range(self, p):
        with pytest.raises(off.LawError):
            off.make_geometric(p)

    def test_noncritical_member_flagged(self):
        law = off.make_geometric(0.3)
        assert not law.is_critical


class TestStableFamily:
    def test_low_order_probabilities(self, stable15):
        th = 1.5
        got = stable15.probabilities(3)
        # binomial series of (1-s)^theta / theta, via an independent oracle
        want = [1 / th, 0.0, (th - 1) / 2, (th - 1) * (2 - th) / 6]
        assert np.allclose(got, want, atol=1e-15)

    def test_against_scipy_binom_oracle(self, stable15):
        th = 1.5
        ks = np.arange(2, 60)
        oracle = np.abs(binom_real(th, ks)) / th
        assert np.allclose(stable15.probabilities(59)[2:], oracle, rtol=1e-13)

    @pytest.mark.parametrize("theta", [1.1, 1.5, 1.9])
    def test_probabilities_filled_in_place(self, theta):
        # the ratio product (k - theta)/(k + 1) as one array expression: bit-identical
        # across block edges, and built without temporaries as long as the result
        def reference(k_max):
            factors = np.ones(k_max - 1)
            factors[0] = (theta - 1.0) / 2.0
            k = np.arange(2, k_max, dtype=float)
            factors[1:] = (k - theta) / (k + 1.0)
            return np.concatenate([[1.0 / theta, 0.0], np.cumprod(factors)])

        law = off.make_stable_family(theta)
        for k_max in (2, 3, 256, 1 << 16, (1 << 16) + 2, 10**6):
            assert np.array_equal(law.probabilities(k_max), reference(k_max))
        tracemalloc.start()
        try:
            result = law.probabilities(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * result.nbytes

    def test_total_mass_with_analytic_tail(self, stable15):
        for cap in (1, 2, 10, 100, 5000):
            total = stable15.probabilities(cap).sum() + stable15.tail_mass(cap)
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [1.002, 1.2, 1.5, 1.9])
    def test_tail_mass_against_mpmath(self, theta):
        # |binom(theta-1, k)| / theta in 40-digit arithmetic, k <= 2^50
        mpmath = pytest.importorskip("mpmath")
        law = off.make_stable_family(theta)
        ks = np.unique(np.r_[np.arange(100), [2**j + d for j in range(6, 51) for d in (-1, 0, 1)]])
        got = law.tail_mass(ks)
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            want = [1 - 1 / th if k == 0 else abs(mpmath.binomial(th - 1, int(k))) / th for k in ks]
            worst = max(abs(mpmath.mpf(g) / w - 1) for g, w in zip(got, want))
        assert worst <= 1e-13
        assert [law.tail_mass(int(k)) for k in ks] == got.tolist()  # scalar = vector

    @pytest.mark.parametrize("theta", [1.002, 1.5, 1.9])
    def test_tail_mass_monotone_across_switches(self, theta):
        # the product/series switch at k = 32 and the former lgamma/Stirling switch at 2^40
        law = off.make_stable_family(theta)
        for k0 in (off._SERIES_FROM, 1 << 40):
            tail = law.tail_mass(np.arange(k0 - 200 if k0 > 200 else 0, k0 + 200))
            assert np.all(np.diff(tail) < 0)

    @pytest.mark.parametrize("theta", [1.005, 1.02, 1.05, 1.2, 1.5, 1.9])
    def test_support_cap_bracket(self, theta, monkeypatch):
        # one tail_mass call over guess -+ 64 gives the bisection's answer; at
        # theta = 1.005, eps = 1e-20 (K ~ 4e17, past float resolution) the scan
        # misses and the bisection runs
        law = off.make_stable_family(theta)

        def bisect(eps):
            hi = max(2, int((law.tail_constant / (theta * eps)) ** (1.0 / theta)))
            while law.tail_mass(hi) > eps:
                hi *= 2
            lo = 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if law.tail_mass(mid) > eps else (lo, mid)
            return hi

        calls = []
        tail_mass = off.OffspringLaw.tail_mass
        monkeypatch.setattr(off.OffspringLaw, "tail_mass",
                            lambda self, k: calls.append(k) or tail_mass(self, k))
        for eps in (1e-18, 1e-15, 1e-12, 1e-6) + ((1e-20,) if theta == 1.005 else ()):
            calls.clear()
            got = law.support_cap(eps)
            assert (len(calls) == 1) == (eps != 1e-20)
            assert got == bisect(eps)
            if eps != 1e-20:
                assert law.tail_mass(got) <= eps < law.tail_mass(got - 1)

    def test_support_cap_past_value_ceil(self):
        # K ~ 4e18 is served; an eps whose K would pass 2^62 names the smallest eps served
        law = off.make_stable_family(1.005)
        assert law.support_cap(1e-21) == 4004321494414955777
        with pytest.raises(off.LawError, match="serves eps >= 8.67"):
            law.support_cap(1e-22)

    @pytest.mark.parametrize("theta", [None, 1.005, 1.5, 1.9])
    def test_support_cap_inverts_tail_on_its_whole_range(self, theta):
        # tail(K) <= eps < tail(K - 1) for every eps in [tail(VALUE_CEIL), 1],
        # including eps >= tail(0) = 1 - 1/theta, where K = 0
        law = off.make_geometric(0.5) if theta is None else off.make_stable_family(theta)
        floor = law.tail_mass(off.VALUE_CEIL)
        grid = np.r_[floor, np.geomspace(max(floor, 1e-300), 1.0, 400), np.linspace(0.0, 1.0, 41)]
        for eps in np.unique(grid[grid >= floor]):
            cap = law.support_cap(float(eps))
            assert 0 <= cap <= off.VALUE_CEIL
            assert law.tail_mass(cap) <= eps
            assert cap == 0 or eps < law.tail_mass(cap - 1)

    def test_mean_is_one(self, stable15):
        cap, th = 10_000, 1.5
        k = np.arange(cap + 1)
        # sum_{j>cap} j mu(j) = |binom(theta-2, cap-1)| = Gamma(cap+1-theta) / (Gamma(2-theta) (cap-1)!)
        tail = math.exp(math.lgamma(cap + 1.0 - th) - math.lgamma(float(cap))) / gamma_fn(2 - th)
        mean = float(k @ stable15.probabilities(cap)) + tail
        assert abs(mean - 1.0) < 1e-12
        assert stable15.is_critical

    def test_tail_constant(self, stable15):
        th = 1.5
        assert abs(stable15.tail_constant - (th - 1) / gamma_fn(2 - th)) < 1e-15
        k = 10**6
        mu_k = stable15.probabilities(k)[-1]
        assert abs(mu_k * k ** (1 + th) / stable15.tail_constant - 1.0) < 1e-4

    @pytest.mark.parametrize("theta", [1.0, 2.0, 0.5, 2.5])
    def test_theta_domain(self, theta):
        with pytest.raises(off.LawError):
            off.make_stable_family(theta)

    def test_aperiodic(self, stable15):
        # support {0, 2, 3, ...}: a tree of every size but 2
        assert stable15.child_count_sums == (1, (True, False, True, True))


class TestTilting:
    def test_two_point_law_hand_solution(self):
        # mean 1.2; solving 1.2 lam^2 = 0.4 + 0.6 lam^2 gives lam = sqrt(2/3)
        law = off.make_explicit([0.4, 0.0, 0.6])
        tilted = off.tilt_to_critical(law)
        assert np.allclose(tilted.probs, [0.5, 0.0, 0.5], atol=1e-11)
        assert abs(tilted.mean - 1.0) < 1e-10

    def test_identity_on_critical(self, geometric, stable15):
        for law in (geometric, stable15):
            assert off.tilt_to_critical(law) is law

    def test_supercritical_geometric(self):
        tilted = off.tilt_to_critical(off.make_geometric(0.7))
        assert abs(tilted.mean - 1.0) < 1e-10

    def test_preserves_support(self):
        law = off.make_explicit([0.3, 0.1, 0.0, 0.6])
        tilted = off.tilt_to_critical(law)
        assert np.array_equal(tilted.probs > 0, law.probs > 0)

    def test_conditioned_tree_law_invariant(self):
        # tilting moves mu within its exponential family and cannot change
        # the conditional law given {zeta = n}
        from gwtrees import enumerate_conditioned

        law = off.make_explicit([0.4, 0.0, 0.6])
        tilted = off.tilt_to_critical(law)
        before = enumerate_conditioned(law, 5)
        after = enumerate_conditioned(tilted, 5)
        assert len(before) == len(after) == 2
        for (t1, p1), (t2, p2) in zip(before, after):
            assert t1 == t2
            assert abs(p1 - p2) < 1e-12

    @pytest.mark.parametrize("cap", [2000, 5000])
    def test_wide_explicit_law_tilts_without_overflow(self, stable15, cap):
        # truncation leaves the law subcritical, so lam > 1 and lam^cap must not be formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tilted = off.tilt_to_critical(stable15.truncate(cap))
        assert abs(tilted.mean - 1.0) <= off.CRIT_TOL
        assert np.array_equal(tilted.probs > 0, stable15.truncate(cap).probs > 0)

    def test_subcritical_support_01_fails(self):
        with pytest.raises(off.LawError):
            off.tilt_to_critical(off.make_explicit([0.6, 0.4]))


class TestCalibrateBn:
    def test_geometric_n100(self, geometric):
        assert abs(off.calibrate_bn(geometric, 100) - 10.0) < 1e-12

    def test_stable_closed_form(self, stable15):
        want = (1000 / 1.5) ** (2 / 3)  # tail matching collapses to (n/theta)^(1/theta)
        assert abs(off.calibrate_bn(stable15, 1000) - want) < 1e-10

    def test_theta2_limit_consistency(self):
        # the power-tail formula at theta -> 2 equals the finite-variance one
        # for mu(0) = mu(2) = 1/2 (sigma = 1): both give sqrt(n/2)
        law = off.make_explicit([0.5, 0.0, 0.5])
        for n in (10, 1000, 12345):
            assert abs(off.calibrate_bn(law, n) - math.sqrt(n / 2)) < 1e-12

    def test_monotone_and_doubling_ratio(self, geometric, stable15):
        for law in (geometric, stable15):
            prev = 0.0
            for n in (10**3, 10**4, 10**5):
                b = off.calibrate_bn(law, n)
                assert b > prev
                prev = b
                ratio = off.calibrate_bn(law, 2 * n) / b
                assert abs(ratio - 2 ** (1 / law.theta)) < 0.01 * 2 ** (1 / law.theta)

    def test_llt_fit_oracle(self, geometric, stable15):
        # independent check: B_n ~ p1(0) / P[W_n = 0] by the local limit theorem
        from gwtrees import walk_pmf
        from gwtrees.stable import p1_closed_zero

        for law in (geometric, stable15):
            n = 4096
            table = walk_pmf(law, n, 1)
            fitted = p1_closed_zero(law.theta) / table.prob(0)
            assert abs(fitted / off.calibrate_bn(law, n) - 1.0) < 0.02

    def test_requires_critical(self):
        with pytest.raises(off.LawError):
            off.calibrate_bn(off.make_geometric(0.3), 100)


class TestLawSpec:
    def test_round_trip(self, geometric, stable15):
        specs = (
            ({"family": "geometric", "param": 0.5, "probabilities": None}, geometric),
            ({"family": "stable", "param": 1.5, "probabilities": None}, stable15),
            ({"family": "explicit", "param": None, "probabilities": [0.5, 0.0, 0.5]},
             off.make_explicit([0.5, 0.0, 0.5])),
        )
        for spec, law in specs:
            again = off.law_from_spec(json.loads(json.dumps(spec)))
            assert again.family == law.family
            assert np.allclose(again.probabilities(10), law.probabilities(10))

    def test_unknown_family(self):
        with pytest.raises(off.LawError):
            off.law_from_spec({"family": "zeta"})

    @pytest.mark.parametrize("spec, key", [({"family": "stable"}, "param"),
                                           ({"family": "explicit"}, "probabilities")])
    def test_missing_key_is_named(self, spec, key):
        with pytest.raises(off.LawError, match=key):
            off.law_from_spec(spec)

    def test_geometric_param_defaults_to_critical(self):
        assert off.law_from_spec({"family": "geometric"}).param == 0.5


class TestExplicit:
    def test_tail_mass_sums_above_k(self):
        law = off.make_explicit([0.5, 0.25, 0.25])
        assert [law.tail_mass(k) for k in range(4)] == [0.5, 0.25, 0.0, 0.0]
        assert law.tail_mass(np.arange(4)).tolist() == [0.5, 0.25, 0.0, 0.0]
        # support_cap stays at the support's top, so tables cover every support point
        assert [law.support_cap(eps) for eps in (1e-18, 0.3, 1.0)] == [2, 2, 2]

    def test_non_finite_probabilities_refused(self):
        # nan passes every comparison of the sum and sign checks, so it is refused by name
        with pytest.raises(off.LawError, match="finite"):
            off.make_explicit([math.nan, 0.5, 0.5])

    @pytest.mark.parametrize("law", [off.make_explicit([0.5, 0.25, 0.25]), off.make_geometric(0.5),
                                     off.make_stable_family(1.5)], ids=lambda law: law.family)
    def test_tail_mass_is_one_below_zero(self, law):
        # P[mu > k] = 1 for every k <= -1, on all three families
        assert [law.tail_mass(k) for k in (-1, -2, -3, -40)] == [1.0] * 4
        assert law.tail_mass(np.array([-3, -1, 0])).tolist() == [1.0, 1.0, law.tail_mass(0)]


class TestTruncate:
    def test_renormalized_explicit(self, stable15):
        tr = stable15.truncate(40)
        assert tr.family == "explicit"
        assert abs(tr.probs.sum() - 1.0) < 1e-12
        assert tr.probs.size == 41
        # ratios inside the kept support are untouched by renormalization
        assert abs(tr.probs[2] / tr.probs[0] - stable15.probs[2] / stable15.probs[0]) < 1e-13

    def test_validation_invariants(self, geometric, stable15):
        for law in (geometric, stable15):
            assert law.probs[0] > 0
            assert law.probabilities(1)[1] < 1
            assert abs(law.mean - 1) < 1e-10
