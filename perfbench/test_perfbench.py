"""Tests of the benchmark itself: statistics, span arithmetic, checks, smoke runs.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile rule -----------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(np.random.default_rng(0).permutation(np.arange(100.0)))
    value, pct = run.tail_percentile(samples)
    assert value == 89.0 and pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_needs_more_than_ten_samples():
    assert run.tail_percentile([1.0] * 10) is None
    value, pct = run.tail_percentile(list(range(11)))
    assert value == 0 and pct == pytest.approx(100.0 / 11)


# -- span arithmetic ------------------------------------------------------------------------------


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    t = tracer.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = t.open("limits.a")
    b = t.open("exactlaw.b")
    c = t.open("stable.c")
    t.close(c)
    t.close(b)
    d = t.open("stable.d")
    t.close(d)
    t.close(a)
    assert t.self_times() == [3, 2, 1, 4]
    layers = tracer.layer_self_times(t.summary())
    assert layers["limits"] == 3 and layers["exactlaw"] == 2 and layers["stable"] == 5
    assert sum(layers.values()) == 10  # self times partition the root span


def test_busy_time_counts_recursive_spans_once():
    t = tracer.Tracer(clock=fake_clock([0, 1, 3, 4]))
    outer = t.open("exactlaw.f")
    inner = t.open("exactlaw.f")
    t.close(inner)
    t.close(outer)
    row = t.summary()["exactlaw.f"]
    assert row == {"calls": 2, "busy_s": 4, "self_s": 4}


def test_spans_must_close_in_order():
    t = tracer.Tracer()
    a = t.open("x")
    t.open("y")
    with pytest.raises(RuntimeError):
        t.close(a)


# -- counting RNG proxy ---------------------------------------------------------------------------------


def test_counting_rng_counts_rows_and_draws_identically():
    counts = Counter()
    proxy = tracer.CountingRng(np.random.default_rng(7), counts)
    plain = np.random.default_rng(7)
    assert np.array_equal(proxy.multinomial(10, [0.5, 0.5]), plain.multinomial(10, [0.5, 0.5]))
    assert np.array_equal(proxy.multinomial(10, [0.5, 0.5], size=4),
                          plain.multinomial(10, [0.5, 0.5], size=4))
    assert proxy.random() == plain.random()
    assert np.array_equal(proxy.random(3), plain.random(3))
    seq_a, seq_b = np.arange(9), np.arange(9)
    proxy.shuffle(seq_a)
    plain.shuffle(seq_b)
    assert np.array_equal(seq_a, seq_b)
    assert counts == {"sampler.attempts": 5, "sampler.tail_draws": 4}


def test_install_wraps_by_name_imports_and_keeps_results():
    import gwtrees
    from gwtrees import limits, sampler

    law = gwtrees.make_stable_family(1.5)
    want = sampler.sample_conditioned(law, 300, rng=sampler.derive_rng(5, 0))
    originals = {m: dict(vars(m)) for name, m in list(sys.modules.items())
                 if name.startswith("gwtrees")}
    t = tracer.Tracer()
    try:
        installed = tracer.install(t)
        assert "sampler.sample_conditioned" in installed
        assert limits.sample_conditioned.__wrapped__ is sampler.sample_conditioned.__wrapped__
        got = gwtrees.sample_conditioned(law, 300, rng=sampler.derive_rng(5, 0))
    finally:
        for mod, attrs in originals.items():
            vars(mod).update(attrs)
    assert got == want
    assert t.counts["sampler.trees"] == 1 and t.counts["sampler.attempts"] >= 1
    assert t.summary()["sampler.sample_conditioned"]["calls"] == 1


# -- every check catches what it is there for -----------------------------------------------------------


def _tree_outputs(n=50):
    import gwtrees

    tree = gwtrees.sample_conditioned(gwtrees.make_geometric(0.5), n,
                                      rng=gwtrees.derive_rng(1, 0))
    return (tree, gwtrees.height_from_tree(tree), gwtrees.contour_from_tree(tree),
            gwtrees.visit_times(tree))


def test_check_tree_passes_good_output_and_flags_each_defect():
    tree, h, c, b = _tree_outputs()
    assert workloads.check_tree(50, tree, h, c, b) == []
    assert any("zeta" in p for p in workloads.check_tree(51, tree, h, c, b))
    bad_b = b.copy()
    bad_b[-1] += 2
    assert any("visit_times" in p for p in workloads.check_tree(50, tree, h, c, bad_b))
    bad_b = b.copy()
    bad_b[3] += 1
    assert any("C[visit_times]" in p for p in workloads.check_tree(50, tree, h, c, bad_b))

    class Flat:
        values = np.zeros_like(c.values)

    assert any("max C" in p for p in workloads.check_tree(50, tree, h, Flat, b))


def test_check_exact_flags_failed_gates_drifted_headlines_and_missing_gates():
    from gwtrees import limits, make_geometric, make_stable_family

    reports = limits.run_suite("progeny", make_geometric(0.5), make_stable_family(1.5), fast=True)
    reference = json.loads(workloads.REFERENCE.read_text())["fast"]
    progeny = {k: v for k, v in reference.items() if k.startswith("progeny")}
    assert workloads.check_exact(reports, progeny) == []
    drifted = json.loads(json.dumps(progeny))
    drifted["progeny_asymptotics/stable"]["r1"][-1] += 0.06  # ratio_tol is 0.05
    assert len(workloads.check_exact(reports, drifted)) == 1
    reports[0].passed = False
    assert any("gate failed" in p for p in workloads.check_exact(reports, progeny))
    assert any("missing" in p for p in workloads.check_exact(reports[:1], progeny))


def test_check_cli_flags_exit_status_schema_rows_and_contour(tmp_path):
    from gwtrees import cli

    prefix = str(tmp_path / "t")
    argv = ["codings", "--law", "geometric", "--n", "200", "--seed", "3",
            "--out-prefix", prefix, "--rescale-points", "16"]
    assert cli.run(argv) == 0
    counts = {}
    assert workloads.check_cli(0, prefix, 200, 16, counts) == []
    assert counts["cli.rows_written"] == 201 + 399 + 16
    assert workloads.check_cli(1, prefix, 200, 16, {}) == ["exit status 1"]
    assert any("rows" in p for p in workloads.check_cli(0, prefix, 200, 17, {}))

    contour = Path(prefix + "_contour.csv")
    lines = contour.read_text().splitlines()
    contour.write_text("\n".join(lines[1:]) + "\n")  # schema line dropped
    assert any("schema" in p for p in workloads.check_cli(0, prefix, 200, 16, {}))
    lines[3] = lines[3].split(",")[0] + ",5"  # C_1 = 5 breaks the +-1 steps
    contour.write_text("\n".join(lines) + "\n")
    assert any("parse back" in p for p in workloads.check_cli(0, prefix, 200, 16, {}))


# -- tiny-size smoke runs of every workload, through child interpreters -------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    wl = workloads.WORKLOADS[name]
    res = run.measure(name, seed=3, seconds=0.5, trace=trace, params=wl.tiny)
    assert res["failed"] == 0, res["problems"]
    assert res["attempted"] >= 1
    line = json.loads(run.result_line(res, trace))
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.declared(trace))
    if trace:
        assert res["metrics"]["trace.unit_s"] > 0
    else:
        assert all(line["metrics"][k]["value"] > 0 for k in ("setup_s", "wall_s", "peak_rss_mb"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_contour",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
