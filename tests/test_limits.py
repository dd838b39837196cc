import json
import re

import numpy as np
import pytest

from gwtrees import limits as lim
from gwtrees.exactlaw import PmfTable
from gwtrees import exactlaw
from gwtrees.offspring import LawError, make_explicit, make_geometric, make_stable_family


def strip_timing(report):
    d = report.to_dict()
    d.pop("timing")
    return d


def test_ks_discrete_counts_ties_exactly():
    table = PmfTable(-1, np.array([0.25, 0.5, 0.25]), 0.0, 1)
    assert lim.ks_discrete([-1, 0, 0, 1], table) == 0.0  # the law itself, ties and all
    assert lim.ks_discrete([0, 0, 0, 0], table) == 0.25
    assert lim.ks_discrete(np.array([-1, 0, 2, 2]), table) == 0.5  # above the table: F = 1


def test_ks_discrete_refuses_draws_below_the_table():
    table = PmfTable(-1, np.array([0.25, 0.5, 0.25]), 0.0, 1)
    with pytest.raises(ValueError, match="draw -3 lies below the table's lowest value -1"):
        lim.ks_discrete([0, -3, -2, 1], table)


@pytest.mark.parametrize("seed", range(5))
def test_ks_matches_scipy(seed):
    # lattice draws with many ties, as the rescaled contour gives; scipy is an oracle only
    from scipy import stats

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 40, 500) * 0.05
    b = rng.integers(0, 30, 300) * 0.07
    got = lim._ks(a, stats.norm(1.0, 0.5).cdf)
    assert got == pytest.approx(stats.kstest(a, stats.norm(1.0, 0.5).cdf).statistic,
                                rel=0, abs=1e-15)
    other = np.sort(b)
    got = lim._ks(a, lambda x: np.searchsorted(other, x, side="right") / other.size,
                  lambda x: np.searchsorted(other, x, side="left") / other.size)
    assert got == pytest.approx(stats.ks_2samp(a, b).statistic, rel=0, abs=1e-15)


class TestLlt:
    def test_decreasing_small(self, geometric):
        rep = lim.llt_experiment(geometric, (64, 512))
        assert rep.passed
        assert rep.statistics["e1"][1] * 2 <= rep.statistics["e1"][0]

    def test_single_n_degenerate(self, geometric):
        # e1 is computable even at n = 1, but the decay gate needs two sizes
        rep = lim.llt_experiment(geometric, (1,))
        assert not rep.passed
        assert rep.statistics["e1"][0] > 0
        assert "needs >= 2 sizes" in rep.notes

    def test_requires_critical(self):
        with pytest.raises(Exception):
            lim.llt_experiment(make_geometric(0.4), (64, 128))


class TestProgenyAsymptotics:
    def test_fast_both_families(self, geometric, stable15):
        for law in (geometric, stable15):
            rep = lim.progeny_asymptotics_experiment(law, (128, 512))
            assert abs(rep.statistics["r1"][-1] - 1.0) < 0.1
            assert abs(rep.statistics["theta_hat"][-1] - law.theta) < 0.1

    def test_theta_hat_exact_for_geometric(self, geometric):
        # P[zeta >= n] / (n P[zeta = n]) is exactly theta = 2 in the dyadic case
        rep = lim.progeny_asymptotics_experiment(geometric, (64, 256))
        for v in rep.statistics["theta_hat"]:
            assert abs(v - 2.0) < 1e-10


class TestRatioVsGamma:
    def test_fast(self, geometric):
        rep = lim.ratio_vs_gamma_experiment(geometric, (128, 512))
        assert rep.statistics["sup_gap"][1] < rep.statistics["sup_gap"][0]
        assert all(abs(m - 1) < 1e-9 for m in rep.statistics["weighted_mean"])

    def test_single_n_fails_the_decay_gate(self, geometric):
        # one size meets the final bound and the mean identity, but shows no decrease
        rep = lim.ratio_vs_gamma_experiment(geometric, (256,))
        assert rep.statistics["sup_gap"][0] <= lim.RATIO_FINAL_BOUND
        assert not rep.passed and rep.notes == "needs >= 2 sizes for the decay gate"


class TestContourLimit:
    def test_theta_guard(self, stable15):
        with pytest.raises(ValueError):
            lim.contour_limit_experiment(stable15, 100, 10)

    def test_small_run_statistics(self, geometric):
        rep = lim.contour_limit_experiment(geometric, 400, 400, seed=5)
        st = rep.statistics
        assert st["replicates_done"] == 400
        assert all(k < 0.2 for k in st["ks_marginal"])
        assert 1.0 < st["mean_sup"] < 2.5
        assert "sup_target_finite_n" in st

    def test_reproducible_bit_for_bit(self, geometric):
        a = lim.contour_limit_experiment(geometric, 200, 150, seed=9)
        b = lim.contour_limit_experiment(geometric, 200, 150, seed=9)
        assert strip_timing(a) == strip_timing(b)


class TestHeightContourGap:
    def test_decreasing_and_pathwise_bound(self, geometric, stable15):
        for law, ns in ((geometric, (256, 2048)), (stable15, (256, 2048))):
            rep = lim.height_contour_gap_experiment(law, ns, 60, seed=3)
            assert rep.passed
            g = rep.statistics["mean_gap"]
            assert g[1] < g[0]
            assert rep.statistics["ineq_violations"] == 0
            if law.theta < 2:
                assert "structural" in rep.notes

    def test_single_n_fails_the_decay_gate(self, geometric):
        rep = lim.height_contour_gap_experiment(geometric, (256,), 5, seed=3)
        assert rep.statistics["ineq_violations"] == 0
        assert not rep.passed and rep.notes == "needs >= 2 sizes for the decay gate"


class TestMarginal:
    def test_both_families_moderate_n(self, geometric, stable15):
        for law in (geometric, stable15):
            rep = lim.lukasiewicz_marginal_experiment(law, 1024)
            assert abs(rep.statistics["exact_identity_mean"] - 1.0) < 1e-9
            assert rep.statistics["abs_error"] < 0.05
            assert rep.passed

    def test_boundary_weight_is_tiny(self, geometric):
        rep = lim.lukasiewicz_marginal_experiment(geometric, 1024)
        assert rep.statistics["boundary_weight"] < 1e-4


BINARY = [0.5, 0.0, 0.5]  # span 2: every tree has an odd size
GAP = [0.99005] + [0.0] * 99 + [0.00495, 0.005]  # critical on {0, 100, 101}: no size 2..100
SIGMA2_3 = [0.6, 0.25, 0.0, 0.0, 0.0, 0.15]  # critical, sigma^2 = 3
SIGMA2_HALF = [0.25, 0.5, 0.25]  # critical, sigma^2 = 1/2


class TestAcStep:
    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("make", [
        lambda: make_geometric(0.5), lambda: make_stable_family(1.5),
        lambda: make_explicit(SIGMA2_HALF), lambda: make_explicit(SIGMA2_3),
    ], ids=["geometric", "theta1.5", "sigma2_half", "sigma2_3"])
    def test_identity_pointwise(self, make, n):
        # the paper's identity at every k, m = n / 2: the law of W_m given zeta = n by
        # the Markov property at m equals the zeta >= n weights reweighted by D, and
        # the weights' total mass is P[zeta >= n] by the branching recursion
        law = make()
        step = lim._ac_step(law, n, 0.5)
        rest = n - n // 2
        want = exactlaw.conditioned_walk_marginal(law, n, n // 2).masses
        assert np.max(np.abs(step.weight[:rest] * step.ratio / step.alive - want)) <= 1e-13
        assert abs(step.alive - (1.0 - float(exactlaw.progeny_rho(law, n)[:n].sum()))) <= 1e-14


def forbid_tables(monkeypatch):
    """Make every exact-table builder and the tree sampler fail if called."""
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("walk_pmf", "progeny_rho", "meander_pmf", "phi", "phi_star",
                 "discrete_ratio_window", "conditioned_walk_marginal"):
        monkeypatch.setattr(exactlaw, name, no_table)
    monkeypatch.setattr(lim, "sample_conditioned", no_table)  # nor a tree drawn


class TestRefusals:
    @pytest.mark.parametrize("experiment, sizes", [
        (lim.llt_experiment, (64, 256)),
        (lim.progeny_asymptotics_experiment, (64, 256)),
        (lim.ratio_vs_gamma_experiment, (64, 256)),
        (lambda law, sizes: lim.lukasiewicz_marginal_experiment(law, sizes[0]), (64,)),
        (lambda law, sizes: lim.contour_limit_experiment(law, sizes[0], 2), (64,)),
        (lambda law, sizes: lim.height_contour_gap_experiment(law, sizes, 2), (64, 256)),
    ], ids=["llt", "progeny", "ratio", "marginal", "contour", "hc_gap"])
    @pytest.mark.parametrize("probs, cause", [(BINARY, "span 2"), (GAP, "P[zeta = 64] = 0")],
                             ids=["binary", "gap"])
    def test_refused_before_any_table(self, monkeypatch, experiment, sizes, probs, cause):
        forbid_tables(monkeypatch)
        with pytest.raises(LawError, match=re.escape(cause)):
            experiment(make_explicit(probs), sizes)

    @pytest.mark.parametrize("experiment, name", [
        (lambda law, a: lim.ratio_vs_gamma_experiment(law, (64, 256), a), "ratio_vs_gamma"),
        (lambda law, a: lim.lukasiewicz_marginal_experiment(law, 64, a), "lukasiewicz_marginal"),
    ], ids=["ratio", "marginal"])
    @pytest.mark.parametrize("a", [0.0, 0.001, 1.0, 1.5])
    def test_bad_split_refused_before_any_table(self, monkeypatch, geometric, experiment,
                                                name, a):
        # floor(a n) must lie in [1, n - 1]: the error names a and the first bad n
        forbid_tables(monkeypatch)
        with pytest.raises(exactlaw.ExactLawError,
                           match=f"{name}_experiment needs a in .* got a = {a!r} at n = 64$"):
            experiment(geometric, a)

    @pytest.mark.parametrize("experiment, replicates, want", [
        (lambda law, reps: lim.contour_limit_experiment(law, 100, reps),
         (0, 1), "contour_limit_experiment needs at least 2 replicates, got {}"),
        (lambda law, reps: lim.height_contour_gap_experiment(law, (100, 400), reps),
         (0, -1), "height_contour_gap_experiment needs at least 1 replicate, got {}"),
    ], ids=["contour", "hc_gap"])
    def test_too_few_replicates_refused_before_any_tree(self, monkeypatch, geometric,
                                                        experiment, replicates, want):
        forbid_tables(monkeypatch)
        for reps in replicates:
            with pytest.raises(ValueError, match=f"^{re.escape(want.format(reps))}$"):
                experiment(geometric, reps)

    @pytest.mark.parametrize("experiment, name", [
        (lim.llt_experiment, "llt_experiment"),
        (lim.progeny_asymptotics_experiment, "progeny_asymptotics_experiment"),
        (lim.ratio_vs_gamma_experiment, "ratio_vs_gamma_experiment"),
        (lambda law, sizes: lim.height_contour_gap_experiment(law, sizes, 2),
         "height_contour_gap_experiment"),
    ], ids=["llt", "progeny", "ratio", "hc_gap"])
    def test_no_sizes_refused(self, geometric, experiment, name):
        with pytest.raises(LawError, match=f"{name} needs at least one size"):
            experiment(geometric, ())


class TestSuite:
    def test_fast_suite_runs_everything(self, geometric, stable15):
        reports = lim.run_suite("all", geometric, stable15, seed=4, fast=True)
        names = {r.name for r in reports}
        assert names == {
            "llt",
            "progeny_asymptotics",
            "ratio_vs_gamma",
            "contour_limit",
            "height_contour_gap",
            "lukasiewicz_marginal",
        }
        for r in reports:
            assert isinstance(r.passed, bool)
            assert json.dumps(r.to_dict(), default=lim.jsonify)  # serializable

    @pytest.mark.parametrize("suite", ["llt", "progeny", "ratio", "marginal"])
    def test_exact_suites_pass_at_other_variances(self, suite):
        # two aperiodic theta = 2 laws with sigma^2 != 2, so that a gate reads
        # calibrate_bn's sigma: sigma^2 = 3 on {0, 1, 5} and sigma^2 = 1/2 on {0, 1, 2}
        wide, narrow = make_explicit(SIGMA2_3), make_explicit(SIGMA2_HALF)
        assert [law.variance for law in (wide, narrow)] == pytest.approx([3.0, 0.5])
        reports = lim.run_suite(suite, wide, narrow)  # default sizes
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_unknown_suite(self, geometric, stable15):
        with pytest.raises(ValueError):
            lim.run_suite("nope", geometric, stable15)

    def test_pass_flag_is_pure_function_of_stats(self, geometric):
        rep = lim.llt_experiment(geometric, (64, 512))
        stats = rep.statistics
        recomputed = (
            stats["e1"][-1] * 2 <= stats["e1"][0]
            and stats["e2"][-1] * 2 <= stats["e2"][0]
            and stats["e1"][-1] <= rep.tolerances["e1_final"]
            and stats["e2"][-1] <= rep.tolerances["e2_final"]
        )
        assert rep.passed == recomputed
