"""Desk-scale verification experiments for the scaling-limit pipeline.

Each experiment checks one quantitative step on the road from conditioned
trees to the stable excursion: the local limit theorem for the walk marginals,
the progeny asymptotics, the convergence of the discrete absolute-continuity
weight D_n to Gamma_a, the theta = 2 functional limit of the rescaled contour,
the height/contour gap, and the Gamma_a-weight consistency of the Lukasiewicz
marginal; an exhaustive small-n check tests the absolute-continuity identity on
walk prefixes.  The ratio and marginal experiments read one absolute-continuity
step per (law, n, a), ``_ac_step``.  Each returns an ``ExperimentReport`` built by
one frame, ``_report``; the six experiments first refuse a law or size they cannot
serve through ``OffspringLaw.require_sizes``.
Exact-table experiments consume no randomness; Monte Carlo ones are
reproducible from (parameters, seed) with per-replicate derived streams.

For theta < 2 no density-level reference for the height marginal exists (the
continuous height process has no tractable marginals), so those runs are
structural: gap decay, pathwise bounds and weight consistency.  Reports say so.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from . import exactlaw, stable
from .codings import contour_from_tree, height_from_tree, visit_times
from .offspring import OffspringLaw, calibrate_bn
from .sampler import derive_rng, sample_conditioned
from .stable import StableLaw

__all__ = [
    "ExperimentReport",
    "jsonify",
    "llt_experiment",
    "progeny_asymptotics_experiment",
    "ratio_vs_gamma_experiment",
    "contour_limit_experiment",
    "height_contour_gap_experiment",
    "lukasiewicz_marginal_experiment",
    "check_absolute_continuity",
    "ks_discrete",
    "run_suite",
    "SUITES",
]

REPORT_SCHEMA = "gwtrees.report/2"


@dataclass
class ExperimentReport:
    """Statistics, gates and provenance of one experiment run.

    ``passed`` is a pure function of ``statistics`` versus ``tolerances``; all
    randomized entries are reproducible from (parameters, seed).  ``wall_time_s``
    and ``created_utc`` are the only non-reproducible fields.
    """

    name: str
    parameters: Dict[str, Any]
    statistics: Dict[str, Any]
    tolerances: Dict[str, Any]
    passed: bool
    seed: Optional[int] = None
    notes: str = ""
    wall_time_s: float = 0.0
    created_utc: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        # timing is the only non-reproducible content; keep it under one key so
        # reports from identical (config, seed) runs differ in that key alone
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "parameters": self.parameters,
            "statistics": self.statistics,
            "tolerances": self.tolerances,
            "passed": self.passed,
            "seed": self.seed,
            "notes": self.notes,
            "timing": {"wall_time_s": self.wall_time_s, "created_utc": self.created_utc},
        }


def _report(name: str, law: OffspringLaw, t0: float, statistics: Dict[str, Any],
            tolerances: Dict[str, Any], passed, notes: str = "", seed: Optional[int] = None,
            **parameters) -> ExperimentReport:
    """The one report frame: ``parameters`` lead with the law's family, the verdict is
    a bool, and the wall time is measured from ``t0``, the experiment's start."""
    return ExperimentReport(name=name, parameters={"family": law.family, **parameters},
                            statistics=statistics, tolerances=tolerances, passed=bool(passed),
                            seed=seed, notes=notes, wall_time_s=time.time() - t0)


def _decreasing(values: Sequence[float]) -> bool:
    """The decay gates: at least two values, each strictly below the one before."""
    return len(values) >= 2 and all(b < a for a, b in zip(values, values[1:]))


def jsonify(obj):
    """``json.dumps`` default: numpy arrays and scalars as plain Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


DECAY_NOTE = "needs >= 2 sizes for the decay gate"
THETA_LT2_NOTE = (
    "theta < 2: no density-level excursion reference exists; this run checks "
    "structural gates only (decay/consistency), not marginal densities."
)

# Fixed windows and gates; each report restates the ones it uses.
ALPHA = 2.0  # bulk window: k up to ALPHA B_n (llt's e2), k in [B_n / ALPHA, ALPHA B_n] (ratio)
LLT_WINDOW_SCALE = 40.0  # llt's e1 window reaches k = 40 B_n
PROGENY_RATIO_TOL = 0.05
RATIO_FINAL_BOUND = 0.25
CONTOUR_T = (0.25, 0.5, 0.75)  # times t of the contour's marginals
CONTOUR_KS_BOUND = 0.03
CONTOUR_REVERSAL_BOUND = 0.02
MARGINAL_WINDOW_SCALE = 50.0  # the step's meander is exact at least up to 50 B_n
MARGINAL_TOL = 0.05


def _ks(sample, cdf: Callable[[np.ndarray], np.ndarray],
        cdf_left: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Tie-aware KS distance sup_x |F_N(x) - F(x)| between draws and a CDF F.

    F_N jumps only at the draws and F is right-continuous, so the sup is reached at
    a distinct draw x: #{<= x}/N against F(x), or #{< x}/N against the left limit
    F(x-), ``cdf_left`` (F itself when F is continuous).  An empty sample is refused.
    """
    xs, counts = np.unique(np.asarray(sample), return_counts=True)
    if xs.size == 0:
        raise ValueError("a KS distance needs at least one draw; the sample is empty")
    upto = np.cumsum(counts)  # #{<= x}
    f = np.asarray(cdf(xs))
    f_left = f if cdf_left is None else np.asarray(cdf_left(xs))
    n = upto[-1]
    return float(max(np.max(np.abs(upto / n - f)), np.max(np.abs((upto - counts) / n - f_left))))


def ks_discrete(sample, table: exactlaw.PmfTable) -> float:
    """Tie-aware KS distance between integer draws and a table's law; an empty sample,
    non-integer draws and a draw below table.lo are refused."""
    sample = np.asarray(sample)
    if sample.size == 0 or not np.issubdtype(sample.dtype, np.integer):
        raise ValueError(f"ks_discrete needs at least one integer draw, got "
                         f"{sample.size} of dtype {sample.dtype}")
    if sample.min() < table.offset:
        raise ValueError(f"ks_discrete: draw {sample.min()} lies below the table's "
                         f"lowest value {table.offset}")
    cum = np.append(0.0, np.cumsum(table.masses))  # cum[i] = F(table.offset + i - 1)

    def cdf(shift):
        return lambda xs: cum[np.minimum(xs - table.offset + shift, table.masses.size)]

    return _ks(sample, cdf(1), cdf(0))


# -- local limit theorem --------------------------------------------------------------


def llt_experiment(law: OffspringLaw, n_list: Sequence[int]) -> ExperimentReport:
    """Sup-norm convergence of the exact walk marginals to the stable density.

    e1(n) = sup_k |B_n P[W_n = k] - p_1(k / B_n)| over k in [-n, LLT_WINDOW_SCALE B_n]
    (outside, both terms are below the achievable floor);
    e2(n) = sup_{1<=k<=ALPHA B_n} |n phi_n(k) - q_1(k / B_n)|.
    Pass: both drop by >= 2x from the first to the last n, and the final values
    stay under 0.02 (theta = 2) or 0.05 (theta < 2).
    """
    t0 = time.time()
    law.require_sizes("llt_experiment", n_list)
    slaw = StableLaw(theta=law.theta)
    final_bound = 0.02 if law.theta == 2.0 else 0.05
    e1, e2, bns = [], [], []
    for n in n_list:
        b_n = calibrate_bn(law, n)
        bns.append(b_n)
        k_hi = int(LLT_WINDOW_SCALE * b_n)
        table = exactlaw.walk_pmf(law, n, k_hi)
        ks = np.arange(-n, k_hi + 1)
        dens = np.asarray(stable.density_p1(slaw, ks / b_n))
        e1.append(float(np.max(np.abs(b_n * table.probs(ks) - dens))))

        js = np.arange(1, int(ALPHA * b_n) + 1)
        phi_n = js / n * table.probs(-js)  # Kemperman: phi_n(j) = (j/n) P[W_n = -j]
        q1 = np.asarray(stable.first_passage_density(slaw, 1.0, js / b_n))
        e2.append(float(np.max(np.abs(n * phi_n - q1))))
    stats = {"n_list": list(n_list), "B_n": bns, "e1": e1, "e2": e2}
    gates = {"e1_decay": 2.0, "e2_decay": 2.0, "e1_final": final_bound, "e2_final": final_bound}
    passed = len(n_list) >= 2 and all(e[-1] * 2.0 <= e[0] and e[-1] <= final_bound
                                      for e in (e1, e2))
    return _report("llt", law, t0, stats, gates, passed,
                   notes="" if len(n_list) >= 2 else DECAY_NOTE,
                   theta=law.theta, alpha=ALPHA, window_scale=LLT_WINDOW_SCALE)


# -- progeny asymptotics ----------------------------------------------------------------


def progeny_asymptotics_experiment(law: OffspringLaw, n_list: Sequence[int]) -> ExperimentReport:
    """P[zeta = n] ~ p1(0) / (h n^(1+1/theta)) and its tail version.

    r1(n) and r2(n) are the exact finite-n quantities over their limits (with
    the slowly varying factor at its constant limit h = B_n / n^(1/theta));
    their ratio tends to theta.  Pass: |r_i(n_max) - 1| <= PROGENY_RATIO_TOL.
    """
    t0 = time.time()
    law.require_sizes("progeny_asymptotics_experiment", n_list)
    n_max = max(n_list)
    rho = exactlaw.progeny_rho(law, n_max)
    tail = 1.0 - np.cumsum(rho)  # tail[p] = P[zeta > p] = P[zeta >= p+1]
    th = law.theta
    h = calibrate_bn(law, n_max) / n_max ** (1.0 / th)
    p10 = stable.p1_closed_zero(th)
    r1, r2, theta_hat = [], [], []
    for n in n_list:
        pn = float(rho[n])
        pgeq = float(tail[n - 1])
        r1.append(pn * n ** (1.0 + 1.0 / th) * h / p10)
        r2.append(pgeq * n ** (1.0 / th) * h / (th * p10))
        theta_hat.append(pgeq / (n * pn))
    stats = {"n_list": list(n_list), "r1": r1, "r2": r2, "theta_hat": theta_hat, "h": h,
             "p1_zero": p10}
    passed = abs(r1[-1] - 1.0) <= PROGENY_RATIO_TOL and abs(r2[-1] - 1.0) <= PROGENY_RATIO_TOL
    return _report("progeny_asymptotics", law, t0, stats, {"ratio_tol": PROGENY_RATIO_TOL},
                   passed, theta=th)


# -- one absolute-continuity step --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ACStep:
    """The step from {zeta >= n} to {zeta = n} at (n, a), m = floor(a n), rest = n - m:
    ``weight[k]`` = P[W_m = k, zeta >= n] = mea_m(k) phi*_rest(k + 1) for k up to
    max(MARGINAL_WINDOW_SCALE B_n, rest), ``alive`` = P[zeta >= n], ``ratio[k]`` =
    D_n^(a)(k) for k < rest (0 beyond: phi_rest(k + 1) = 0) and ``d_mean`` = E[D | zeta >= n].
    """

    n: int
    a: float
    b_n: float
    weight: np.ndarray
    alive: float
    clipped: float
    ratio: np.ndarray
    d_mean: float


def _require_split(what: str, sizes: Sequence[int], a: float) -> None:
    """Refuse a outside (0, 1) and any size n whose m = floor(a n) leaves [1, n - 1]."""
    for n in sizes:
        if not (0.0 < a < 1.0 and 1 <= math.floor(a * n) < n):
            raise exactlaw.ExactLawError(f"{what} needs a in (0, 1) with 1 <= floor(a n) "
                                         f"<= n - 1, got a = {a!r} at n = {n}")


def _ac_step(law: OffspringLaw, n: int, a: float) -> _ACStep:
    """The absolute-continuity step at (n, a), built from one meander, one phi* read
    and one D window; the law's ``"ac"`` table keeps the latest (n, a)."""
    step = law.tables.get("ac")
    if step is None or (step.n, step.a) != (n, a):
        b_n = calibrate_bn(law, n)
        m = int(math.floor(a * n))
        rest = n - m
        mea = exactlaw.meander_pmf(law, m, max(int(MARGINAL_WINDOW_SCALE * b_n), rest))
        weight = mea.masses * exactlaw.phi_star(law, rest, np.arange(1, mea.masses.size + 1))
        alive = float(weight.sum()) + mea.truncated_mass  # clipped states have phi* = 1
        ratio = exactlaw.discrete_ratio_window(law, n, a, 0, rest - 1)
        weight.flags.writeable = ratio.flags.writeable = False
        step = law.tables["ac"] = _ACStep(n, a, b_n, weight, alive, mea.truncated_mass, ratio,
                                          float(weight[:rest] @ ratio) / alive)
    return step


# -- D_n versus Gamma_a -------------------------------------------------------------------


def ratio_vs_gamma_experiment(
    law: OffspringLaw, n_list: Sequence[int], a: float = 0.5
) -> ExperimentReport:
    """sup over the bulk window of |D_n^(a)(k) - Gamma_a(k / B_n)|, per n.

    Pass: the sup-gap decreases along n_list (at least two sizes) and the final
    gap is below RATIO_FINAL_BOUND; the weighted-mean identity
    E[D | zeta >= n] = 1 is also verified at every n at 1e-9.  Both read the
    absolute-continuity step at (n, a).
    """
    t0 = time.time()
    law.require_sizes("ratio_vs_gamma_experiment", n_list)
    _require_split("ratio_vs_gamma_experiment", n_list, a)
    slaw = StableLaw(theta=law.theta)
    gaps, means = [], []
    for n in n_list:
        step = _ac_step(law, n, a)
        k_lo = max(1, int(math.ceil(step.b_n / ALPHA)))
        k_hi = int(ALPHA * step.b_n)
        ks = np.arange(k_lo, k_hi + 1)
        d_vals = step.ratio[k_lo : k_hi + 1]
        d_vals = np.pad(d_vals, (0, ks.size - d_vals.size))  # D = 0 from k = rest on
        g_vals = np.asarray(stable.gamma_a(slaw, a, ks / step.b_n))
        gaps.append(float(np.max(np.abs(d_vals - g_vals))))
        means.append(step.d_mean)
    mean_ok = all(abs(m - 1.0) <= 1e-9 for m in means)
    stats = {"n_list": list(n_list), "sup_gap": gaps, "weighted_mean": means}
    passed = _decreasing(gaps) and gaps[-1] <= RATIO_FINAL_BOUND and mean_ok
    return _report("ratio_vs_gamma", law, t0, stats,
                   {"final_bound": RATIO_FINAL_BOUND, "weighted_mean": 1e-9}, passed,
                   notes="" if len(n_list) >= 2 else DECAY_NOTE,
                   theta=law.theta, a=a, alpha=ALPHA)


# -- theta = 2 contour limit -------------------------------------------------------------


def contour_limit_experiment(
    law: OffspringLaw,
    n: int,
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """Monte Carlo check of the theta = 2 functional limit of the contour.

    Samples conditioned trees, rescales the contour by B_n/n at times 2nt for t
    in CONTOUR_T, and gates: KS distance to the excursion height marginal at
    each t (CONTOUR_KS_BOUND), the mean of the rescaled contour maximum against
    sqrt(pi) (3 standard errors), and a paired two-sample KS between C at 2nt
    and its time reversal (CONTOUR_REVERSAL_BOUND).
    """
    t0 = time.time()
    if law.theta != 2.0:
        raise ValueError("contour_limit_experiment needs a theta = 2 law "
                         "(density-level excursion reference exists only there)")
    law.require_sizes("contour_limit_experiment", [n])
    if replicates < 2:  # the standard error of the sup-mean needs two
        raise ValueError(f"contour_limit_experiment needs at least 2 replicates, got {replicates}")
    b_n = calibrate_bn(law, n)
    scale = b_n / n
    idx = [int(round(2 * n * t)) for t in CONTOUR_T]
    top = 2 * (n - 1)
    rows: List = []
    for rep in range(replicates):
        tree = sample_conditioned(law, n, rng=derive_rng(seed, rep))
        c = contour_from_tree(tree).values
        rows.append((
            [float(c[i]) if i <= top else 0.0 for i in idx],
            [float(c[top - i]) if 0 <= top - i <= top else 0.0 for i in idx],
            float(c.max()),
        ))
    at = np.array([r[0] for r in rows]) * scale
    rev = np.array([r[1] for r in rows]) * scale
    sups = np.array([r[2] for r in rows]) * scale

    ks_t, ks_rev = [], []
    for j, t in enumerate(CONTOUR_T):
        ks_t.append(_ks(at[:, j], lambda y: stable.excursion_marginal_theta2_cdf(t, y)))
        other = np.sort(rev[:, j])
        ks_rev.append(_ks(at[:, j], lambda y: np.searchsorted(other, y, side="right") / other.size,
                          lambda y: np.searchsorted(other, y, side="left") / other.size))
    mean_sup = float(sups.mean())
    se_sup = float(sups.std(ddof=1) / math.sqrt(sups.size))
    target = math.sqrt(math.pi)

    stats = {
        "n": n,
        "replicates_done": int(sups.size),
        "t_list": list(CONTOUR_T),
        "ks_marginal": ks_t,
        "ks_reversal": ks_rev,
        "mean_sup": mean_sup,
        "se_sup": se_sup,
        "sup_target": target,
        "mean_at_half": float(at[:, CONTOUR_T.index(0.5)].mean()),
        "mean_at_half_target": stable.excursion_height_mean(0.5),
    }
    notes = ""
    if law.family == "geometric":
        # uniform plane trees: E[max C] = sqrt(pi n) - 3/2 + o(1), so the
        # limit target sqrt(pi) carries a -1.5/sqrt(n) finite-size offset
        stats["sup_target_finite_n"] = (math.sqrt(math.pi * n) - 1.5) * scale
        if abs(mean_sup - target) > 3.0 * se_sup:
            notes = (
                "sup-mean misses the limit target by the known finite-size "
                "height bias ~ -1.5 * B_n/n; see sup_target_finite_n"
            )
    passed = (
        max(ks_t) <= CONTOUR_KS_BOUND
        and max(ks_rev) <= CONTOUR_REVERSAL_BOUND
        and abs(mean_sup - target) <= 3.0 * se_sup
    )
    return _report("contour_limit", law, t0, stats,
                   {"ks": CONTOUR_KS_BOUND, "reversal_ks": CONTOUR_REVERSAL_BOUND,
                    "sup_sigma": 3.0}, passed,
                   notes=notes, seed=seed, n=n, replicates=replicates)


# -- height versus contour gap ---------------------------------------------------------------


def height_contour_gap_experiment(
    law: OffspringLaw,
    n_list: Sequence[int],
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """Mean of (B_n/n) sup_t |C_{2nt} - H_{nt}| per n; must decrease in n (at
    least two sizes).

    Also asserts the pathwise bound sup_{[b_p, b_{p+1}]} |C - H_p| <=
    |H_{p+1} - H_p| + 1 on every sampled tree (violations counted).
    """
    t0 = time.time()
    law.require_sizes("height_contour_gap_experiment", n_list)
    if replicates < 1:
        raise ValueError(f"height_contour_gap_experiment needs at least 1 replicate, "
                         f"got {replicates}")

    def one(n: int, rep: int) -> tuple:
        rng = derive_rng(seed, n, rep)
        tree = sample_conditioned(law, n, rng=rng)
        h = height_from_tree(tree).values
        c = contour_from_tree(tree).values
        # both (B_n/n) C_{2nt} and (B_n/n) H_{nt} are piecewise linear with
        # breakpoints inside the grid t = i/(2n), so the sup over t is exact
        h_at_half_steps = np.interp(np.arange(c.size) / 2.0, np.arange(h.size + 1),
                                    np.append(h, 0.0))
        gap = np.max(np.abs(c - h_at_half_steps))
        # tail window [2n-2, 2n]: C = 0, H_{nt} interpolates H_{n-1} -> 0
        gap = max(gap, float(h[-1]))
        # pathwise inequality check on contour segments between visits
        b = visit_times(tree)
        seg_max = np.maximum.reduceat(c, b[:-1])
        seg_min = np.minimum.reduceat(c, b[:-1])
        dev = np.maximum(seg_max - h, h - seg_min)
        allowed = np.abs(np.diff(np.concatenate([h, [0]]))) + 1
        bad = int(np.sum(dev > allowed))
        return gap, bad

    means, viols = [], 0
    for n in n_list:
        res = [one(n, r) for r in range(replicates)]
        scale = calibrate_bn(law, n) / n
        means.append(float(np.mean([g for g, _ in res]) * scale))
        viols += sum(b for _, b in res)
    stats = {"n_list": list(n_list), "mean_gap": means, "ineq_violations": viols}
    passed = _decreasing(means) and viols == 0
    notes = [] if law.theta == 2.0 else [THETA_LT2_NOTE]
    if len(n_list) < 2:
        notes.append(DECAY_NOTE)
    return _report("height_contour_gap", law, t0, stats,
                   {"decreasing": True, "ineq_violations": 0}, passed,
                   notes=" ".join(notes), seed=seed, theta=law.theta, replicates=replicates)


# -- Gamma_a weight consistency of the Lukasiewicz marginal -------------------------------------


def lukasiewicz_marginal_experiment(
    law: OffspringLaw, n: int, a: float = 0.5
) -> ExperimentReport:
    """|E[Gamma_a(W_{floor(an)} / B_n) | zeta >= n] - 1| <= MARGINAL_TOL, from exact tables.

    The expectation reads the absolute-continuity step's weights
    P[W_m = k, zeta >= n] at (n, a); Gamma_a is extended by its boundary limits
    1/(1-a) below x = 1e-3 and 0 above x = 1e3 (total weight there is tiny,
    and is reported).  The exact f = 1 identity E[D_n | zeta >= n] = 1 is
    checked alongside at 1e-9: the step's D-weighted mean.
    """
    t0 = time.time()
    law.require_sizes("lukasiewicz_marginal_experiment", [n])
    _require_split("lukasiewicz_marginal_experiment", [n], a)
    slaw = StableLaw(theta=law.theta)
    step = _ac_step(law, n, a)
    w = step.weight
    xs = np.arange(w.size) / step.b_n
    gam = np.empty(xs.size)
    inside = (xs >= stable.GAMMA_X_LO) & (xs <= stable.GAMMA_X_HI)
    gam[inside] = np.asarray(stable.gamma_a(slaw, a, xs[inside]))
    gam[xs < stable.GAMMA_X_LO] = 1.0 / (1.0 - a)  # small-x limit of Gamma_a
    gam[xs > stable.GAMMA_X_HI] = 0.0
    expect_gamma = float((w * gam).sum()) / step.alive
    boundary_weight = float(w[~inside].sum()) / step.alive

    stats = {
        "n": n,
        "E_gamma": expect_gamma,
        "abs_error": abs(expect_gamma - 1.0),
        "boundary_weight": boundary_weight,
        "exact_identity_mean": step.d_mean,
        "meander_clipped_mass": step.clipped,
    }
    passed = abs(expect_gamma - 1.0) <= MARGINAL_TOL and abs(step.d_mean - 1.0) <= 1e-9
    note = ("0.05 gate is a pinned empirical choice: the paper does not "
            "quantify the D_n -> Gamma_a rate.")
    if law.theta < 2.0:
        note += " " + THETA_LT2_NOTE
    return _report("lukasiewicz_marginal", law, t0, stats,
                   {"tol": MARGINAL_TOL, "exact_identity": 1e-9}, passed,
                   notes=note, theta=law.theta, a=a)


# -- exhaustive absolute-continuity check ---------------------------------------------------


def check_absolute_continuity(law: OffspringLaw, n: int, a: float) -> ExperimentReport:
    """Exhaustive verification of the prefix absolute-continuity identity.

    For every walk prefix (W_0..W_m), m = floor(a n), realized while the walk is
    still alive, the conditional mass under {zeta = n} (computed by exhaustive
    tree enumeration) must equal the D-weighted conditional mass under
    {zeta >= n} (computed from hitting-probability tables).  Reports the
    maximum absolute discrepancy over prefixes; passes at 1e-10.  More than 2e6
    step sequences are refused before any tree or table is built.

    The check cannot see phi* or P[zeta >= n]: each prefix's weight phi*_rest(j) /
    P[zeta >= n] cancels D's denominator exactly, so it tests phi_rest and P[zeta = n]
    only.  A phi* scaled by 1.5 at odd j leaves max_discrepancy at rounding level; the
    ratio and marginal experiments see it through the step's P[zeta >= n], its ``alive``.
    """
    t0 = time.time()
    _require_split("check_absolute_continuity", [n], a)
    m = int(math.floor(a * n))
    # Prefixes containing a child count >= n contribute 0 to both sides
    # (the tree can't close at n vertices and phi_rest vanishes), so the
    # enumeration over counts <= n - 1 is complete for the discrepancy.
    mu = law.probabilities(n - 1)
    support = [int(c) for c in np.flatnonzero(mu > 0)]
    nu = {c - 1: mu[c] for c in support}
    if len(nu) ** m > 2_000_000:
        raise exactlaw.ExactLawError("prefix enumeration too large; reduce support or a")

    # LHS: conditional prefix masses under {zeta = n} from tree enumeration
    lhs: dict = {}
    for tree, p in exactlaw.enumerate_conditioned(law, n):
        w = np.concatenate([[0], np.cumsum(tree.child_counts[:m] - 1)])
        key = tuple(int(x) for x in w)
        lhs[key] = lhs.get(key, 0.0) + p

    # RHS: D-weighted masses under {zeta >= n} over all alive prefixes
    rest = n - m
    j_hi_needed = max(m * (max(support) - 1) + 2, 2)
    phistar_r = exactlaw.phi_star(law, rest, np.arange(1, j_hi_needed + 1))
    d_vals = exactlaw.discrete_ratio_window(law, n, a, 0, j_hi_needed - 1)  # D(j - 1) at j - 1
    phistar_n1 = max(0.0, 1.0 - float(exactlaw.progeny_rho(law, n)[:n].sum()))

    rhs: dict = {}
    prefix = [0] * (m + 1)

    def rec(i: int, w: int, prob: float) -> None:
        if i == m:
            key = tuple(prefix)
            j = w + 1
            weight = prob * phistar_r[j - 1] / phistar_n1
            rhs[key] = rhs.get(key, 0.0) + weight * d_vals[j - 1]
            return
        for s, ps in nu.items():
            w2 = w + s
            if w2 < 0:
                continue
            prefix[i + 1] = w2
            rec(i + 1, w2, prob * ps)

    rec(0, 0, 1.0)

    keys = set(lhs) | set(rhs)
    max_disc = max(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in keys)
    rhs_total = sum(rhs.values())
    tol = 1e-10
    stats = {
        "max_discrepancy": max_disc,
        "prefixes": len(keys),
        "lhs_total": sum(lhs.values()),
        "rhs_total": rhs_total,
    }
    return _report("absolute_continuity_check", law, t0, stats, {"max_discrepancy": tol},
                   max_disc <= tol and abs(rhs_total - 1.0) <= tol, n=n, a=a)


# -- suite orchestration ---------------------------------------------------------------------


SUITES = ("llt", "progeny", "ratio", "contour", "gap", "marginal")


def run_suite(
    suite: str,
    geometric: OffspringLaw,
    heavy: OffspringLaw,
    seed: int = 0,
    fast: bool = False,
) -> List[ExperimentReport]:
    """Run one named suite (or 'all') on the canonical pair of laws."""
    reports: List[ExperimentReport] = []
    n_llt = (64, 256, 1024, 4096) if not fast else (64, 256)
    if suite in ("llt", "all"):
        reports.append(llt_experiment(geometric, n_llt))
        reports.append(llt_experiment(heavy, n_llt))
    if suite in ("progeny", "all"):
        ns = (256, 1024, 2048) if not fast else (64, 256)
        reports.append(progeny_asymptotics_experiment(geometric, ns))
        reports.append(progeny_asymptotics_experiment(heavy, ns))
    if suite in ("ratio", "all"):
        ns = (256, 1024, 4096) if not fast else (64, 256)
        reports.append(ratio_vs_gamma_experiment(geometric, ns))
        reports.append(ratio_vs_gamma_experiment(heavy, ns))
    if suite in ("contour", "all"):
        n, reps = (10_000, 10_000) if not fast else (1_000, 1_000)
        reports.append(contour_limit_experiment(geometric, n, reps, seed=seed))
    if suite in ("gap", "all"):
        ns = (1_000, 10_000, 100_000) if not fast else (256, 1024)
        reps = 200 if not fast else 50
        reports.append(height_contour_gap_experiment(geometric, ns, reps, seed=seed))
        ns_h = (1_000, 10_000) if not fast else (256, 1024)
        reports.append(height_contour_gap_experiment(heavy, ns_h, reps, seed=seed))
    if suite in ("marginal", "all"):
        n = 4096 if not fast else 512
        reports.append(lukasiewicz_marginal_experiment(geometric, n))
        reports.append(lukasiewicz_marginal_experiment(heavy, n))
    if not reports:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    return reports
