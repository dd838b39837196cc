import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.special import gamma as gamma_fn
from scipy.special import zeta

from gwtrees import exactlaw as ex
from gwtrees import stable as stb
from gwtrees.offspring import make_stable_family
from gwtrees.sampler import derive_rng, sample_conditioned

G2 = stb.StableLaw(2.0)
S13 = stb.StableLaw(1.3)
S15 = stb.StableLaw(1.5)
S18 = stb.StableLaw(1.8)
HEAVY = (S13, S15, S18)


def gaussian_p1(x):
    return np.exp(-np.asarray(x) ** 2 / 4.0) / (2 * math.sqrt(math.pi))


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gl_p1(law, xs):
    """Slow oracle: the inversion integral by composite 16-point Gauss-Legendre.

    Panels are sized to the fastest oscillation x u + u^theta sin(theta pi/2)
    at max |x| and doubled until two panelings agree to abs_tol; the cosine
    matrix is evaluated in row chunks of about 2^21 entries.
    """
    th = law.theta
    c, s = math.cos(th * math.pi / 2), math.sin(th * math.pi / 2)
    u_max = (math.log(1 / law.trunc_envelope) / -c) ** (1 / th)
    f_max = np.max(np.abs(xs)) + th * s * u_max ** (th - 1)
    n_panels = int(max(16, math.ceil(u_max * f_max / math.pi)))
    prev = None
    for _ in range(9):
        edges = np.linspace(0.0, u_max, n_panels + 1)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        u = (mid[:, None] + half[:, None] * GL_NODES).ravel()
        w = (half[:, None] * GL_WEIGHTS).ravel() * np.exp(c * u**th)
        rows = max(1, (1 << 21) // u.size)
        cur = np.concatenate([np.cos(xs[i : i + rows, None] * u + s * u**th) @ w
                              for i in range(0, xs.size, rows)]) / math.pi
        if prev is not None and np.max(np.abs(cur - prev)) <= law.abs_tol:
            return cur
        prev, n_panels = cur, 2 * n_panels
    raise AssertionError("oracle quadrature did not converge")


class TestDensityP1:
    def test_theta2_closed_values(self):
        assert stb.density_p1(G2, 0.0) == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=0)
        assert stb.density_p1(G2, 2.0) == pytest.approx(math.exp(-1) / (2 * math.sqrt(math.pi)), abs=0)

    def test_theta2_quadrature_vs_gaussian(self):
        # run the inversion integral explicitly and compare on [-6, 6]
        xs = np.linspace(-6, 6, 241)
        got = stb._p1_quadrature(G2, xs)
        assert np.max(np.abs(got - gaussian_p1(xs))) <= 1e-8

    @pytest.mark.parametrize("law", HEAVY, ids=lambda l: f"theta={l.theta}")
    def test_zero_value_closed_form(self, law):
        want = gamma_fn(1 / law.theta) * math.sin(math.pi / law.theta) / (math.pi * law.theta)
        assert abs(stb.density_p1(law, 0.0) - want) <= 1e-7

    @pytest.mark.parametrize("law", HEAVY + (G2,), ids=lambda l: f"theta={l.theta}")
    def test_normalization(self, law):
        # quadrature over the body plus the analytic regularly-varying tail
        # int_X^inf p1 ~ X^-theta / (theta Gamma(-theta)) for theta < 2
        th = law.theta
        if th == 2.0:
            total, _ = quad(lambda x: stb.density_p1(law, x), -12, 12)
        else:
            X = 1000.0
            body, _ = quad(lambda x: stb.density_p1(law, x), -12, X, limit=400)
            gamma_minus_theta = gamma_fn(2 - th) / (th * (th - 1))
            total = body + X ** (-th) / (th * gamma_minus_theta)
        assert abs(total - 1.0) <= 1e-6

    def test_nonnegative_everywhere(self):
        xs = np.linspace(-30, 60, 500)
        for law in HEAVY:
            assert np.all(np.asarray(stb.density_p1(law, xs)) >= 0.0)

    def test_vector_scalar_consistency(self):
        # each point reads the law's cached grid alone: a batch is bit-equal to
        # element-wise calls, left of the grid, on it, and on the tail series
        xs = np.array([-40.0, -16.0, -2.0, 0.3, 5.0, 111.9, 112.0, 112.5, 1e3, 1e6])
        for law in HEAVY:
            vec = stb.density_p1(law, xs)
            assert np.array_equal(vec, [stb.density_p1(law, float(x)) for x in xs])

    def test_independent_of_blas_threads(self):
        code = ("import hashlib, numpy as np; from gwtrees import stable as s; "
                "v = s.density_p1(s.StableLaw(1.3), np.linspace(-10, 10, 1001)); "
                "print(hashlib.sha256(v.tobytes()).hexdigest())")
        src = str(Path(stb.__file__).parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("theta", [1.05, 1.1, 1.3, 1.5, 1.8, 2.0])
    def test_grid_matches_gl_oracle(self, theta):
        # the body, then thinned points out to |x| = 1000, past both ends of
        # the grid (0 on the left, the tail series on the right); the oracle
        # sizes its panels by max |x|, so far points go in their own batch
        law = stb.StableLaw(theta)
        near = np.linspace(-16, 40, 225)
        far = np.concatenate([-np.geomspace(17, 1000, 6), np.geomspace(41, 1000, 12)])
        for xs in (near, far):
            err = np.max(np.abs(stb._p1_quadrature(law, xs) - gl_p1(law, xs)))
            assert err <= law.abs_tol

    @pytest.mark.parametrize("theta", [1.02, 1.05, 1.2, 1.5, 1.9])
    def test_hurwitz_zeta_against_scipy(self, theta):
        # the tail-series exponents s = 1 + k theta + order of _tail_series and the
        # grid's error bound, over a in [1e-3, 200] and at the bound's a = 1 - 16/128
        a = np.geomspace(1e-3, 200.0, 801)
        a0 = 1.0 - stb._LEFT_CUT / stb._PERIOD
        for k in range(1, 7):
            for order in range(3):
                s = 1.0 + k * theta + order
                got = stb._hurwitz_zeta(s, a)
                assert np.max(np.abs(got / zeta(s, a) - 1.0)) <= 1e-14
                assert abs(float(stb._hurwitz_zeta(s, a0)) / zeta(s, a0) - 1.0) <= 1e-14

    def test_theta_near_one(self):
        # theta = 1.02 needs dx = 2^-11, four interleaved transforms of 2^16 points;
        # below theta ~ 1.0046 the spacing would pass 2^-13 and the law is refused
        law = stb.StableLaw(1.02)
        xs = np.linspace(-16, 40, 57)
        assert np.max(np.abs(stb._p1_quadrature(law, xs) - gl_p1(law, xs))) <= law.abs_tol
        with pytest.raises(ValueError, match=r"theta=1\.004 .* needs dx=6\.1035"):
            stb.StableLaw(1.004)

    def test_theta_near_one_refused_at_construction(self):
        # the error names the smallest served theta, read off the grid's own sizing rule
        with pytest.raises(ValueError, match=r"theta=1\.002 .* 2\^-13; theta must be >= 1\.0046") as exc:
            stb.StableLaw(1.002)
        t_min = float(str(exc.value).rsplit(">= ", 1)[1])
        assert stb._grid_exponent(t_min, stb.StableLaw.abs_tol) == stb._FINEST
        stb.StableLaw(t_min)
        # the offspring law has no p_1 grid: its exact tables and trees still work
        law = make_stable_family(1.002)
        table = ex.walk_pmf(law, 64)
        assert table.exact_hi > 64 and table.truncated_mass > 0.0
        ex.progeny_pmf(law, 32)  # walk tables against the recursion, 1e-12
        assert sample_conditioned(law, 50, rng=derive_rng(1)).zeta == 50

    @pytest.mark.parametrize("law", HEAVY, ids=lambda l: f"theta={l.theta}")
    def test_against_levy_stable(self, law, monkeypatch):
        # scipy's Nolan integral in S1 with beta = 1: an independent route
        from scipy.stats import levy_stable

        monkeypatch.setattr(levy_stable, "parameterization", "S1")
        th = law.theta
        xs = np.linspace(-4, 20, 25)
        want = levy_stable.pdf(xs, th, 1.0, loc=0.0, scale=abs(math.cos(math.pi * th / 2)) ** (1 / th))
        assert np.max(np.abs(stb.density_p1(law, xs) - want)) <= 1e-10

    def test_self_check_raises_with_grid_and_error(self, monkeypatch):
        monkeypatch.setattr(stb.StableLaw, "abs_tol", 1e-20)
        stb._grid.cache_clear()
        with pytest.raises(stb.StableNumericsError,
                           match=r"theta=1\.5 \(P=128, dx=0\.000976562\) reached error \d\.\d+e-\d+"):
            stb.density_p1(S15, 0.0)

    def test_memory_bounded_on_wide_grid(self):
        # p1 reads a cached grid of Hermite pieces (2^12 at theta = 1.5), so a wide
        # batch holds a few arrays of its own length, never points x nodes
        xs = np.linspace(-40, 40, 1024)
        tracemalloc.start()
        try:
            stb.density_p1(S15, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_law_is_theta_alone(self):
        assert [f.name for f in dataclasses.fields(stb.StableLaw)] == ["theta"]
        assert S15.abs_tol == 1e-10 and S15 == stb.StableLaw(1.5)


class TestDensityPt:
    def test_t1_identity(self):
        xs = np.linspace(-3, 3, 11)
        assert np.allclose(stb.density_pt(S15, 1.0, xs), stb.density_p1(S15, xs))

    def test_theta2_scaling_value(self):
        assert stb.density_pt(G2, 4.0, 0.0) == pytest.approx(0.5 / (2 * math.sqrt(math.pi)))

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_normalization(self, t):
        for law in (S15, G2):
            if law.theta == 2.0:
                total, _ = quad(lambda x: stb.density_pt(law, t, x), -20, 20)
            else:
                X = 500.0
                body, _ = quad(lambda x: stb.density_pt(law, t, x), -15, X, limit=400)
                th = law.theta
                tail = t * X ** (-th) / (th * gamma_fn(2 - th) / (th * (th - 1)))
                total = body + tail
            assert abs(total - 1.0) <= 1e-6

    def test_t_positive(self):
        with pytest.raises(ValueError):
            stb.density_pt(S15, 0.0, 1.0)


class TestFirstPassage:
    def test_theta2_value(self):
        assert stb.first_passage_density(G2, 1.0, 1.0) == pytest.approx(
            math.exp(-0.25) / (2 * math.sqrt(math.pi))
        )

    def test_linear_at_zero(self):
        small = np.array([1e-4, 1e-3])
        vals = np.asarray(stb.first_passage_density(G2, 1.0, small))
        assert vals[1] == pytest.approx(10 * vals[0], rel=1e-4)
        assert vals[0] < 1e-4

    def test_scaling_consistency(self):
        s, x = 2.0, 1.0
        lhs = stb.first_passage_density(S15, s, x)
        rhs = s ** (-1 - 1 / 1.5) * x * stb.density_p1(S15, -x * s ** (-1 / 1.5))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_x_required(self):
        with pytest.raises(ValueError):
            stb.first_passage_density(S15, 1.0, 0.0)


class TestPassageIntegral:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("law", [S15, G2], ids=lambda l: f"theta={l.theta}")
    def test_total_mass_one(self, law, x):
        assert abs(stb.passage_integral(law, 0.0, x) - 1.0) <= 1e-5

    def test_vanishes_at_infinity(self):
        assert stb.passage_integral(S15, 1e9, 1.0) < 1e-4
        assert stb.passage_integral(G2, 1e9, 1.0) < 1e-4

    def test_theta2_against_direct_quadrature(self):
        got = stb.passage_integral(G2, 0.5, 1.0)
        direct, _ = quad(lambda s: stb.first_passage_density(G2, s, 1.0), 0.5, np.inf,
                         limit=300)
        assert got == pytest.approx(direct, abs=1e-9)

    def test_theta15_against_direct_quadrature(self):
        got = stb.passage_integral(S15, 0.5, 1.0)
        body, _ = quad(lambda s: stb.first_passage_density(S15, s, 1.0), 0.5, 400.0,
                       limit=400)
        tail = stb.passage_integral(S15, 400.0, 1.0)
        assert got == pytest.approx(body + tail, abs=1e-7)

    def test_erf_against_scipy(self):
        # the theta = 2 closed form and the excursion CDF map math.erf over arrays
        xs = np.linspace(-6.0, 6.0, 24001)
        assert np.max(np.abs(stb._erf(xs) - erf(xs))) <= 4.5e-16
        assert stb._erf(xs[1:].reshape(3, -1)).shape == (3, 8000)
        assert stb.passage_integral(G2, 0.5, 1.0) == float(stb._erf(1.0 / (2 * math.sqrt(0.5))))

    def test_monotone_in_lower(self):
        vals = [stb.passage_integral(S15, lo, 1.0) for lo in (0.0, 0.25, 1.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestGammaA:
    def test_nonnegative_grid(self):
        xs = np.geomspace(1e-3, 1e3, 50)
        for law in (S15, G2):
            for a in (0.25, 0.5, 0.75):
                assert np.all(np.asarray(stb.gamma_a(law, a, xs)) >= 0.0)

    def test_theta2_pinned_by_two_routes(self):
        got = stb.gamma_a(G2, 0.5, 1.0)
        num = 2 * stb.first_passage_density(G2, 0.5, 1.0)
        den, _ = quad(lambda s: stb.first_passage_density(G2, s, 1.0), 0.5, np.inf,
                      limit=300)
        assert got == pytest.approx(num / den, abs=1e-9)
        assert got == pytest.approx(1.4177498104544135, abs=1e-12)  # regression pin

    def test_theta15_two_routes(self):
        x = 2.0
        got = stb.gamma_a(S15, 0.5, x)
        num = 1.5 * stb.first_passage_density(S15, 0.5, x)
        body, _ = quad(lambda s: stb.first_passage_density(S15, s, x), 0.5, 400.0,
                       limit=400)
        den = body + stb.passage_integral(S15, 400.0, x)
        assert got == pytest.approx(num / den, rel=1e-6)

    def test_small_x_limit(self):
        # Gamma_a(0+) = 1/(1-a)
        for law in (S15, G2):
            for a in (0.25, 0.5):
                assert stb.gamma_a(law, a, 1e-3) == pytest.approx(1 / (1 - a), rel=5e-3)

    def test_domain_guard(self):
        for bad in (1e-4, 2e3):
            with pytest.raises(stb.GammaDomainError):
                stb.gamma_a(S15, 0.5, bad)

    def test_continuity_on_compacts(self):
        xs = np.linspace(0.5, 3.0, 200)
        vals = np.asarray(stb.gamma_a(S15, 0.5, xs))
        assert np.max(np.abs(np.diff(vals))) < 0.05


class TestZetaTail:
    def test_theta2(self):
        assert stb.zeta_tail(G2, 1.0) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-15)

    def test_theta15(self):
        assert stb.zeta_tail(S15, 1.0) == pytest.approx(1 / gamma_fn(1 / 3), abs=1e-15)

    def test_power_scaling(self):
        for law in (S13, S15, G2):
            t0 = 3.7
            ratio = stb.zeta_tail(law, 2**law.theta * t0) / stb.zeta_tail(law, t0)
            assert ratio == pytest.approx(0.5, abs=1e-12)


class TestExcursionMarginal:
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_normalized(self, t):
        total, _ = quad(lambda y: stb.excursion_marginal_theta2(t, y), 0, 25)
        assert abs(total - 1.0) <= 1e-8

    def test_mean_at_half(self):
        mean, _ = quad(lambda y: y * stb.excursion_marginal_theta2(0.5, y), 0, 25)
        assert mean == pytest.approx(2 / math.sqrt(math.pi), abs=1e-9)
        assert stb.excursion_height_mean(0.5) == pytest.approx(2 / math.sqrt(math.pi))

    def test_time_symmetry(self):
        ys = np.linspace(0.05, 5, 60)
        a = np.asarray(stb.excursion_marginal_theta2(0.3, ys))
        b = np.asarray(stb.excursion_marginal_theta2(0.7, ys))
        assert np.max(np.abs(a - b)) < 1e-14

    def test_cdf_matches_density(self):
        for y in (0.4, 1.0, 2.2):
            want, _ = quad(lambda z: stb.excursion_marginal_theta2(0.5, z), 0, y)
            assert stb.excursion_marginal_theta2_cdf(0.5, y) == pytest.approx(want, abs=1e-10)

    def test_zero_off_the_positive_axis(self):
        assert stb.excursion_marginal_theta2(0.5, -1.0) == 0.0
        assert stb.excursion_marginal_theta2(0.5, 0.0) == 0.0
        # the CLI's default grid -6:6:241 carries mass 1, not 2
        ys = np.linspace(-6, 6, 241)
        f = np.asarray(stb.excursion_marginal_theta2(0.5, ys))
        assert abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(ys))) - 1.0) <= 1e-3

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            stb.excursion_marginal_theta2(t, 1.0)


class TestMonteCarloConsistency:
    def test_walk_histogram_vs_density(self, geometric):
        # 1e5 samples of W_n / B_n at n = 4096 against the Gaussian limit CDF
        from gwtrees import calibrate_bn

        n, draws = 4096, 100_000
        cap = geometric.support_cap(1e-15)
        pvals = np.maximum(np.append(geometric.probabilities(cap), geometric.tail_mass(cap)), 0)
        pvals /= pvals.sum()
        vals = np.arange(-1, cap + 1)  # tail bucket mapped to its smallest value
        rng = derive_rng(2718)
        counts = rng.multinomial(n, pvals, size=draws)
        w = counts @ vals
        sample = np.sort(w / calibrate_bn(geometric, n))
        cdf = 0.5 * (1.0 + erf(sample / 2.0))  # P[X_1 <= x] for theta = 2 (variance 2)
        i = np.arange(draws)
        ks = max(np.max(np.abs(cdf - i / draws)), np.max(np.abs(cdf - (i + 1) / draws)))
        assert ks < 0.02
