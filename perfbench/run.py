"""The gwtrees benchmark: four workloads, each measured in fresh interpreters.

    python3 perfbench/run.py --workload mc_contour --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all

With ``--trace 0`` a run measures the end-to-end metrics untraced; with
``--trace 1`` it measures the workload once untraced and once with every
layer's public functions wrapped (see tracer.py), and reports per-layer
metrics plus the tracing overhead.  Every metric is printed as a table; the
last line of standard output is one JSON object with the metrics that
BENCHMARK.json declares for the chosen trace mode.  ``--all`` runs every
workload both ways and writes measured.json next to this file.

All work runs in child interpreters, one at a time, each with one BLAS
thread; the package is imported from ``src`` of the checkout this file sits
in, and nothing is written outside ``perfbench/_work`` there.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

from tracer import LAYERS, UNIT, layer_self_times
from workloads import (
    EARLIER_FIGURES,
    LAYER_MOVES,
    PREDICTED_SHARES,
    WORKLOADS,
)

SETUP_SAMPLES = 3  # set-up timings per run; their median is setup_s
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


# -- statistics ---------------------------------------------------------------------------


def tail_percentile(samples: List[float], beyond: int = 10) -> Optional[Tuple[float, float]]:
    """(value, percentile) of the highest percentile with >= ``beyond`` samples above it.

    With the samples sorted, that is the one with exactly ``beyond`` samples
    after it; its percentile is 100 (N - beyond) / N.  None when N <= beyond.
    """
    n = len(samples)
    if n <= beyond:
        return None
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n


def unit_of(name: str) -> str:
    if name.endswith("_samples"):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("tree_ms."):
        return "ms"
    if name.endswith("us_per_attempt"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("_frac", "acceptance", "_per_tree")):
        return "ratio"
    if name.endswith("truncated_mass_max"):
        return "prob"
    return "count"


# -- child interpreters -------------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GWTREES_OUT_DIR", None)
    for var in THREAD_ENV:
        env[var] = "1"
    return env


def spawn(job: dict, deadline: float, flags: Tuple[str, ...] = ()) -> Tuple[dict, str]:
    """Run one worker job to completion; returns (its JSON line, its stderr)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before a child could start")
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} child exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} child exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def run_work(name: str, seed: int, seconds: float, trace: bool, params: dict,
             workdir: Path, deadline: float) -> List[dict]:
    """Work children until ``seconds`` are spent: one for a Monte Carlo loop,
    one per unit for workloads that pay a fresh interpreter per unit."""
    wl = WORKLOADS[name]
    outs: List[dict] = []
    t0 = time.monotonic()
    while not outs or (wl.fresh_per_unit and time.monotonic() - t0 < seconds):
        job = {"workload": name, "mode": "work",
               "seed": seed * 1000 + len(outs) if wl.fresh_per_unit else seed,
               "seconds": max(0.0, seconds - (time.monotonic() - t0)), "trace": trace,
               "params": params, "workdir": str(workdir),
               "spans_out": str(WORK / f"spans-{name}.json")}
        outs.append(spawn(job, deadline)[0])
    return outs


def setup_job(name: str, params: dict) -> dict:
    return {"workload": name, "mode": "setup", "seed": 0, "seconds": 0, "trace": False,
            "params": params}


_IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> Dict[str, Tuple[float, float]]:
    """{module: (self_s, cumulative_s)} from ``python -X importtime`` output."""
    out = {}
    for m in _IMPORTTIME.finditer(stderr):
        out[m.group(4)] = (int(m.group(1)) / 1e6, int(m.group(2)) / 1e6)
    return out


# -- metrics ----------------------------------------------------------------------------------


def end_to_end(name: str, works: List[dict], setups: List[float]) -> Dict[str, float]:
    units = [s for w in works for s in w["unit_s"]]
    attempted = sum(w["ops"] for w in works)
    failed = sum(w["failed"] for w in works)
    m = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(units) / len(units),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in works),
        "failed_frac": failed / attempted,
        "units": len(units),
    }
    if not WORKLOADS[name].fresh_per_unit:
        m["trees_per_s"] = len(units) / sum(units)
        m["tree_ms.p50"] = 1e3 * statistics.median(units)
        tail = tail_percentile(units)
        if tail is not None:
            m["tree_ms.tail"] = 1e3 * tail[0]
            m["tree_ms.tail_pct"] = tail[1]
            m["tree_ms.tail_samples"] = len(units)
    return m


def per_layer(plain: List[dict], traced: List[dict],
              imports: Dict[str, Tuple[float, float]]) -> Dict[str, float]:
    summary: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    for w in traced:
        for span, row in w["trace"]["summary"].items():
            acc = summary.setdefault(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for src in (w["trace"]["counts"], w["counts"]):
            for k, v in src.items():
                counts[k] = counts.get(k, 0) + v
        for k, v in w["trace"]["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)

    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layer_s = layer_self_times(summary)
    traced_units = [s for w in traced for s in w["unit_s"]]
    plain_units = [s for w in plain for s in w["unit_s"]]
    common = min(len(traced_units), len(plain_units))
    unit_total = sum(traced_units)
    trees, attempts = counts.get("sampler.trees", 0), counts.get("sampler.attempts", 0)
    sampler_busy = get("sampler.sample_conditioned", "busy_s")
    rows = counts.get("cli.rows_written", 0)

    m: Dict[str, float] = {
        "sampler.sample_conditioned.calls": get("sampler.sample_conditioned", "calls"),
        "sampler.sample_conditioned.busy_s": sampler_busy,
        "sampler.attempts": attempts,
        "sampler.acceptance": ratio(trees, attempts),
        "sampler.tail_draws": counts.get("sampler.tail_draws", 0),
        "sampler.us_per_attempt": 1e6 * ratio(sampler_busy, attempts),
        "sampler.attempts_per_s": ratio(attempts, sampler_busy),
    }
    for f in ("height_from_tree", "height_from_walk", "walk_from_tree", "rescale"):
        m[f"codings.{f}.calls"] = get(f"codings.{f}", "calls")
        m[f"codings.{f}.busy_s"] = get(f"codings.{f}", "busy_s")
    for f in ("contour_from_tree", "visit_times"):
        m[f"codings.{f}.self_s"] = get(f"codings.{f}", "self_s")
    m["codings.height_passes_per_tree"] = ratio(counts.get("codings.height_passes", 0), trees)
    m["codings.vertices_per_s"] = ratio(counts.get("sampler.vertices", 0), layer_s["codings"])
    m["codings.bytes_computed"] = counts.get("codings.bytes_computed", 0)
    m["stable.density_p1.calls"] = get("stable.density_p1", "calls")
    m["stable.density_p1.points"] = counts.get("stable.density_p1.points", 0)
    m["stable.density_p1.busy_s"] = get("stable.density_p1", "busy_s")
    m["stable.density_p1.points_per_s"] = ratio(m["stable.density_p1.points"],
                                                m["stable.density_p1.busy_s"])
    for f in ("gamma_a", "first_passage_density"):
        m[f"stable.{f}.self_s"] = get(f"stable.{f}", "self_s")
    for f in ("walk_pmf", "phi_phi_star_at", "progeny_rho", "discrete_ratio_window",
              "ratio_weighted_mean", "meander_pmf"):
        for key in ("calls", "busy_s", "self_s"):
            m[f"exactlaw.{f}.{key}"] = get(f"exactlaw.{f}", key)
    m["exactlaw.table_entries"] = counts.get("exactlaw.table_entries", 0)
    m["exactlaw.truncated_mass_max"] = maxima.get("exactlaw.truncated_mass_max", 0.0)
    m["offspring.calibrate_bn.busy_s"] = get("offspring.calibrate_bn", "busy_s")
    for f in ("llt", "progeny", "ratio", "marginal"):
        m[f"limits.{f}.self_s"] = get(f"limits.{f}", "self_s")
    m["cli.run.self_s"] = get("cli.run", "self_s")
    m["cli.rows_written"] = rows
    m["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    m["cli.rows_per_s"] = ratio(rows, m["cli.run.self_s"])
    for layer in LAYERS + (UNIT,):
        m[f"{layer}.self_s"] = layer_s.get(layer, 0.0)
        m[f"{layer}.self_frac"] = ratio(layer_s.get(layer, 0.0), unit_total)
    m["trace.unit_s"] = ratio(unit_total, len(traced_units))
    m["trace.overhead_frac"] = ratio(sum(traced_units[:common]), sum(plain_units[:common])) - 1
    # fixed import rows (scipy and the package itself are always imported) ...
    m["setup.import.gwtrees_s"] = imports.get("gwtrees", (0.0, 0.0))[1]
    m["setup.import.numpy_s"] = imports.get("numpy", (0.0, 0.0))[1]
    m["setup.import.scipy_s"] = sum(s for mod, (s, _) in imports.items()
                                    if mod == "scipy" or mod.startswith("scipy."))
    # ... and the slowest top-level-or-package imports by cumulative time
    ranked = sorted(((cum, mod) for mod, (_, cum) in imports.items()
                     if mod.count(".") <= 1 and not mod.startswith("_")), reverse=True)
    for cum, mod in ranked[:6]:
        m.setdefault(f"setup.import.{mod}_s", cum)
    return m


# -- one run ----------------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            params: Optional[dict] = None) -> Dict[str, object]:
    """Run one workload; returns attempted/failed counts, problems and metrics."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    params = params or {}
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            works = run_work(name, seed, seconds, False, params, workdir, deadline)
            setups = [w["setup_s"] for w in works]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(setup_job(name, params), deadline)[0]["setup_s"])
            metrics = end_to_end(name, works, setups)
        else:
            _, stderr = spawn(setup_job(name, params), deadline, ("-X", "importtime"))
            plain = run_work(name, seed, seconds / 2, False, params, workdir, deadline)
            traced = run_work(name, seed, seconds / 2, True, params, workdir, deadline)
            metrics = per_layer(plain, traced, parse_importtime(stderr))
            works = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "attempted": sum(w["ops"] for w in works),
        "failed": sum(w["failed"] for w in works),
        "problems": [p for w in works for p in w["problems"]],
        "metrics": metrics,
    }


def declared(trace: bool) -> Dict[str, str]:
    """{metric: unit} that BENCHMARK.json requires for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(res: Dict[str, object], trace: bool) -> str:
    metrics, units = res["metrics"], declared(trace)
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def print_table(name: str, res: Dict[str, object]) -> None:
    for key, value in res["metrics"].items():
        print(f"{name:<12} {key:<44} {value:>16.6g} {unit_of(key)}")
    print(f"{name:<12} {'attempted':<44} {res['attempted']:>16d} count")
    print(f"{name:<12} {'failed':<44} {res['failed']:>16d} count")
    for p in res["problems"]:
        print(f"{name:<12} FAILED CHECK: {p}")


# -- every workload, both ways ------------------------------------------------------------------


def machine() -> Dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "blas_threads_how": ", ".join(f"{v}=1" for v in THREAD_ENV) + " in every child",
        "measured_coding_kernels": "numba" if numba else "pure Python (numba absent)",
    }


def run_all(seed: int, seconds: float) -> int:
    out = {
        "command": f"python3 perfbench/run.py --all --seed {seed} --seconds {seconds:g}",
        "machine": machine(),
        "layer_moves": LAYER_MOVES,
        "workloads": {},
    }
    failed = 0
    for name, wl in WORKLOADS.items():
        e2e = measure(name, seed, seconds, False)
        layers = measure(name, seed, seconds, True)
        print_table(name, e2e)
        print_table(name, layers)
        failed += e2e["failed"] + layers["failed"]
        shares = {layer: layers["metrics"][f"{layer}.self_frac"] for layer in LAYERS + (UNIT,)}
        out["workloads"][name] = {
            "why": wl.why,
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
            "measured_shares": shares,
            "predicted_shares": PREDICTED_SHARES[name],
            "dominant_layer": {"predicted": max(PREDICTED_SHARES[name],
                                                key=PREDICTED_SHARES[name].get),
                               "measured": max(shares, key=shares.get)},
        }
    out["earlier_figures"] = [
        dict(f, measured=out["workloads"][f["workload"]]["end_to_end"][f["metric"]])
        for f in EARLIER_FIGURES
    ]
    (HERE / "measured.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {HERE / 'measured.json'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, both trace modes")
    args = p.parse_args(argv)
    if not (SRC / "gwtrees" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no gwtrees sources under {SRC} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(spec_path.read_text())["run_seconds"])
    compileall.compile_dir(str(SRC / "gwtrees"), quiet=1)  # byte-compile once, untimed
    try:
        if args.all:
            return run_all(args.seed, seconds)
        res = measure(args.workload, args.seed, seconds, bool(args.trace))
        print_table(args.workload, res)
        print(result_line(res, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if res["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
