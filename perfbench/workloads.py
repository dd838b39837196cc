"""The benchmark's workloads: what each one runs, why, and how its output is checked.

Nothing here imports the package at module level: the worker times the import
itself, so every package module is reached through the context that
``setup`` returns.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

MC_N = 10_000
RESCALE_POINTS = 512
CLI_N = 1_000_000
EXACT_SUITES = ("llt", "progeny", "ratio", "marginal")

# Each experiment's headline statistics and the key of the tolerance the
# experiment itself states for them; a statistic matches the reference when
# every entry lies within that tolerance.
HEADLINE_TOL = {
    "llt": {"e1": "e1_final", "e2": "e2_final"},
    "progeny_asymptotics": {"r1": "ratio_tol", "r2": "ratio_tol"},
    "ratio_vs_gamma": {"sup_gap": "final_bound", "weighted_mean": "weighted_mean"},
    "lukasiewicz_marginal": {"E_gamma": "tol"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    module: str  # what setup imports: the package, or the module the workload enters by
    laws: Tuple[Tuple[str, float], ...]  # (constructor, argument) built in setup
    fresh_per_unit: bool  # one interpreter per unit, as a CLI invocation pays
    params: Dict[str, object]
    tiny: Dict[str, object]  # sizes for the benchmark's own smoke test
    run: Callable


class Context:
    """Package modules and laws built in set-up, plus the job's settings."""

    def __init__(self, workload: Workload, job: dict):
        self.workload = workload
        self.seed = int(job["seed"])
        self.seconds = float(job["seconds"])
        self.params = dict(workload.params, **job.get("params", {}))
        self.workdir = job.get("workdir")
        self.laws = []
        self.counts: Dict[str, float] = {}

    def setup(self) -> None:
        # __import__, unlike importlib.import_module, is what -X importtime reports
        __import__(self.workload.module)
        gw = sys.modules["gwtrees"]
        self.laws = [getattr(gw, ctor)(arg) for ctor, arg in self.workload.laws]

    def module(self, name: str):
        return sys.modules[f"gwtrees.{name}"]


# -- Monte Carlo: the gap experiment's per-tree pipeline -------------------------------------------


def check_tree(n: int, tree, height, contour, visits) -> List[str]:
    """The pipeline's invariants: size, visit times and both codings' maxima."""
    import numpy as np

    problems = []
    h, c, b = height.values, contour.values, np.asarray(visits)
    if tree.zeta != n:
        problems.append(f"tree.zeta = {tree.zeta}, expected {n}")
    if b.size != h.size + 1 or b[-1] != 2 * (n - 1):
        problems.append("visit_times[-1] != 2(n-1)")
    elif b.min() < 0 or b.max() >= c.size or not np.array_equal(c[b[:-1]], h):
        problems.append("C[visit_times] != H")
    if c.max() != h.max():
        problems.append(f"max C = {c.max()} != max H = {h.max()}")
    return problems


def run_mc(ctx: Context, unit) -> Tuple[int, int, List[str]]:
    sampler, codings, offspring = (ctx.module(m) for m in ("sampler", "codings", "offspring"))
    law = ctx.laws[0]
    n, points = int(ctx.params["n"]), int(ctx.params["points"])
    problems: List[str] = []
    failed = 0
    deadline = time.perf_counter() + ctx.seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        try:
            with unit(rep):
                tree = sampler.sample_conditioned(law, n, rng=sampler.derive_rng(ctx.seed, rep))
                height = codings.height_from_tree(tree)
                contour = codings.contour_from_tree(tree)
                visits = codings.visit_times(tree)
                codings.rescale(contour, n, offspring.calibrate_bn(law, n), points)
            found = check_tree(n, tree, height, contour, visits)
        except Exception as exc:  # a failed operation is counted, not fatal
            found = [repr(exc)]
        failed += bool(found)
        problems += [f"tree {rep}: {p}" for p in found]
        rep += 1
    return rep, failed, problems


# -- exact chain: limits.run_suite on both laws ---------------------------------------------------


def headline(reports) -> Dict[str, Dict[str, object]]:
    """{experiment/family: {statistic: value}} for the statistics in HEADLINE_TOL."""
    out = {}
    for r in reports:
        keys = HEADLINE_TOL.get(r.name, {})
        stats = {k: _plain(r.statistics[k]) for k in keys if k in r.statistics}
        out[f"{r.name}/{r.parameters.get('family')}"] = stats
    return out


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return float(value)


def check_exact(reports, reference: Dict[str, Dict[str, object]]) -> List[str]:
    """One problem per failing gate: the gate failed or a headline left its tolerance."""
    problems = []
    seen = set()
    for r in reports:
        key = f"{r.name}/{r.parameters.get('family')}"
        seen.add(key)
        bad = [] if r.passed else ["gate failed"]
        ref = reference.get(key)
        if ref is None:
            bad.append("no reference values")
        else:
            got = headline([r])[key]
            for stat, tol_key in HEADLINE_TOL[r.name].items():
                tol = float(r.tolerances[tol_key])
                want = ref[stat] if isinstance(ref[stat], list) else [ref[stat]]
                have = got.get(stat)
                have = have if isinstance(have, list) else [have]
                if len(have) != len(want) or any(
                    h is None or not abs(h - w) <= tol for h, w in zip(have, want)
                ):
                    bad.append(f"{stat} = {have} vs reference {want} (tol {tol:g})")
        if bad:
            problems.append(f"{key}: " + "; ".join(bad))
    for key in sorted(set(reference) - seen):
        problems.append(f"{key}: gate missing from the suite")
    return problems


def run_exact(ctx: Context, unit) -> Tuple[int, int, List[str]]:
    limits = ctx.module("limits")
    geometric, heavy = ctx.laws
    fast = bool(ctx.params["fast"])
    reference = json.loads(REFERENCE.read_text())["fast" if fast else "default"]
    gates = len(reference)
    try:
        with unit(0):
            reports = []
            for suite in EXACT_SUITES:
                reports += limits.run_suite(suite, geometric, heavy, fast=fast)
    except Exception as exc:
        return gates, gates, [f"suite raised {exc!r}"]
    problems = check_exact(reports, reference)
    return gates, min(gates, len(problems)), problems


# -- CLI export: gwtrees codings at n = 1e6 -------------------------------------------------------


def check_cli(rc: int, prefix: str, n: int, points: int, counts: Dict[str, float]) -> List[str]:
    """Exit status, schema lines, row counts, and the contour read back."""
    import numpy as np

    problems = [] if rc == 0 else [f"exit status {rc}"]
    expected = {"vertex": n + 1, "contour": 2 * n - 1, "rescaled": points}
    tables = {}
    for part, rows in expected.items():
        path = f"{prefix}_{part}.csv"
        if not os.path.exists(path):
            problems.append(f"{part}: file missing")
            continue
        counts["cli.bytes_written"] = counts.get("cli.bytes_written", 0) + os.path.getsize(path)
        with open(path) as fh:
            if not fh.readline().startswith("# schema: gwtrees.csv/"):
                problems.append(f"{part}: schema line missing")
        table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        counts["cli.rows_written"] = counts.get("cli.rows_written", 0) + table.shape[0]
        if table.shape[0] != rows:
            problems.append(f"{part}: {table.shape[0]} rows, expected {rows}")
        tables[part] = table
    if "vertex" in tables and "contour" in tables:
        from gwtrees.codings import ContourSeq

        try:
            contour = ContourSeq(tables["contour"][:, 1].astype(np.int64))
            h_max = int(tables["vertex"][:-1, 2].max())  # last row pads H with -1
            if int(contour.values.max()) != h_max:
                problems.append(f"max C = {contour.values.max()} != max H = {h_max}")
        except ValueError as exc:
            problems.append(f"contour does not parse back: {exc}")
    return problems


def run_cli(ctx: Context, unit) -> Tuple[int, int, List[str]]:
    cli = ctx.module("cli")
    n, points = int(ctx.params["n"]), int(ctx.params["points"])
    prefix = os.path.join(ctx.workdir, f"codings-{os.getpid()}")
    argv = ["codings", "--law", "geometric", "--n", str(n), "--seed", str(ctx.seed),
            "--out-prefix", prefix, "--rescale-points", str(points)]
    try:
        with unit(0):
            rc = cli.run(argv)
        problems = check_cli(rc, prefix, n, points, ctx.counts)
    except Exception as exc:
        problems = [f"codings raised {exc!r}"]
    finally:
        for part in ("vertex", "contour", "rescaled"):
            if os.path.exists(f"{prefix}_{part}.csv"):
                os.remove(f"{prefix}_{part}.csv")
    return 1, int(bool(problems)), problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_contour",
            "the 8a/gap suites' hot loop: geometric trees at n = 1e4, where the "
            "pure-Python codings dominate and the sampler is cheap",
            "gwtrees", (("make_geometric", 0.5),), False,
            {"n": MC_N, "points": RESCALE_POINTS}, {"n": 200, "points": 64}, run_mc,
        ),
        Workload(
            "mc_heavy",
            "the same per-tree pipeline on the theta = 1.5 family, where rejection "
            "attempts over a ~16k-category multinomial dominate",
            "gwtrees", (("make_stable_family", 1.5),), False,
            {"n": MC_N, "points": RESCALE_POINTS}, {"n": 200, "points": 64}, run_mc,
        ),
        Workload(
            "exact_suite",
            "the paper's exact chain (llt, progeny, ratio, marginal on both laws): "
            "p1 quadrature and exactlaw convolutions, no randomness",
            "gwtrees.limits", (("make_geometric", 0.5), ("make_stable_family", 1.5)), True,
            {"fast": False}, {"fast": True}, run_exact,
        ),
        Workload(
            "cli_export",
            "gwtrees codings at n = 1e6 with 512 rescale points: the only workload "
            "through the cli/report CSV layer, and codings on one large tree",
            "gwtrees.cli", (), True,
            {"n": CLI_N, "points": RESCALE_POINTS}, {"n": 1000, "points": 64}, run_cli,
        ),
    )
}

# Which end-to-end metric each layer should move, and on which workloads
# (predictions stated before measuring; the traced run records the shares).
LAYER_MOVES = {
    "sampler": "trees_per_s / tree_ms.* on mc_heavy (~87 % of tree time), on mc_contour "
               "by up to ~20 %, cli_export not at all",
    "codings": "trees_per_s on mc_contour (~80 %) and wall_s on cli_export (~35 %), "
               "mc_heavy only slightly",
    "stable": "wall_s and peak_rss_mb on exact_suite (~70 %), no other workload",
    "exactlaw": "wall_s on exact_suite (~28 %)",
    "offspring": "wall_s on exact_suite (expected small)",
    "limits": "wall_s on exact_suite (expected small)",
    "cli": "wall_s on cli_export (~60 %: CSV formatting and writing)",
    "setup.import": "setup_s on every workload (scipy.signal ~1.4 of ~1.6 s)",
}

# Layer shares predicted per workload, compared with the traced run's shares.
PREDICTED_SHARES = {
    "mc_contour": {"codings": 0.80, "sampler": 0.20},
    "mc_heavy": {"sampler": 0.87},
    "exact_suite": {"stable": 0.70, "exactlaw": 0.28},
    "cli_export": {"cli": 0.60, "codings": 0.35, "sampler": 0.01},
}

# Earlier hand-timed figures (ROADMAP "Recent" and a later rerun), set
# against the measured values.
EARLIER_FIGURES = [
    {"figure": "theta = 1.5 tree at n = 1e4, mean s per tree (ROADMAP)", "value": 0.68,
     "workload": "mc_heavy", "metric": "wall_s"},
    {"figure": "theta = 1.5 tree at n = 1e4, mean s per tree (rerun, 64 trees)",
     "value": 0.17, "workload": "mc_heavy", "metric": "wall_s"},
    {"figure": "geometric tree at n = 1e4, s per tree incl. contour (ROADMAP)",
     "value": 0.0113, "workload": "mc_contour", "metric": "wall_s"},
    {"figure": "exact suite wall s", "value": 32.0, "workload": "exact_suite",
     "metric": "wall_s"},
    {"figure": "exact suite peak RSS MB", "value": 1100.0, "workload": "exact_suite",
     "metric": "peak_rss_mb"},
    {"figure": "codings n = 1e6 CLI wall s (sample --emit contour in ROADMAP)",
     "value": 5.9, "workload": "cli_export", "metric": "wall_s"},
    {"figure": "import gwtrees s", "value": 1.6, "workload": "mc_contour",
     "metric": "setup_s"},
]
