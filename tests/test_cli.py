import csv
import json
import math

import numpy as np
import pytest

from gwtrees.cli import CSV_BLOCK, CSV_SCHEMA, _write_csv, run


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# schema:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestExact:
    def test_progeny_n3_contains_value(self, tmp_path, capsys):
        assert run(["exact", "--law", "geometric", "--what", "progeny", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_at_n"] == pytest.approx(0.0625, abs=1e-15)

    def test_ratio_and_phi(self, capsys):
        assert run(["exact", "--law", "geometric", "--what", "ratio", "--n", "6",
                    "--a", "0.5", "--k", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ratio"] == pytest.approx(2.0, abs=1e-12)
        assert run(["exact", "--law", "geometric", "--what", "phi", "--n", "3",
                    "--j", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["phi"] == pytest.approx(1 / 16)

    def test_walk_of_a_point_mass_at_the_minimum(self, tmp_path, capsys):
        law_file = tmp_path / "leaf.json"
        law_file.write_text(json.dumps({"family": "explicit", "probabilities": [1.0]}))
        assert run(["exact", "--law", str(law_file), "--what", "walk", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["offset"], payload["pmf"]) == (-3, [1.0])

    def test_ratio_refused_where_size_is_impossible(self, capsys):
        # stable:1.5 has mu(1) = 0, so P[zeta = 2] = 0 and D_2 is undefined
        assert run(["exact", "--law", "stable:1.5", "--what", "ratio", "--n", "2",
                    "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "P[zeta = 2] = 0" in captured.err

    def test_ac_check_exit_codes(self, capsys):
        assert run(["exact", "--law", "geometric", "--what", "ac-check", "--n", "4",
                    "--a", "0.5"]) == 0

    def test_walk_table_metadata(self, tmp_path):
        out = tmp_path / "walk.json"
        assert run(["exact", "--law", "stable:1.5", "--what", "walk", "--n", "8",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "truncated_mass" in payload
        assert payload["offset"] == -8

    def test_wide_walk_table_within_mass_budget(self, tmp_path):
        # rounding noise in the far tail once failed the mass check here (exit 2)
        out = tmp_path / "walk.json"
        assert run(["exact", "--law", "geometric", "--what", "walk", "--n", "60000",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["offset"] == -60000


class TestSample:
    def test_unique_two_vertex_walk(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["sample", "--law", "geometric", "--n", "2", "--count", "1",
                    "--seed", "5", "--emit", "walk", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["sample", "index", "W"]
        assert [r[2] for r in rows] == ["0", "0", "-1"]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["sample", "--law", "geometric", "--n", "50", "--count", "3",
                        "--seed", "99", "--emit", "height", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_zero_writes_header_only(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["sample", "--law", "geometric", "--n", "5", "--count", "0",
                    "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == b"# schema: gwtrees.csv/1\nsample,index,W\r\n"

    @pytest.mark.parametrize("emit,tcol,per_tree", [
        ("tree", "index", lambda n: n), ("walk", "index", lambda n: n + 1),
        ("height", "index", lambda n: n), ("contour", "time", lambda n: 2 * n - 1),
    ])
    def test_each_emit_rows_per_sample(self, tmp_path, emit, tcol, per_tree):
        n, out = 9, tmp_path / "s.csv"
        assert run(["sample", "--law", "geometric", "--n", str(n), "--count", "2",
                    "--seed", "4", "--emit", emit, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["sample", tcol]
        rows_per = per_tree(n)
        assert [r[0] for r in rows] == ["0"] * rows_per + ["1"] * rows_per
        assert [int(r[1]) for r in rows] == list(range(rows_per)) * 2

    def test_generated_seed_printed(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["sample", "--law", "geometric", "--n", "3", "--emit", "tree",
                    "--out", str(out)]) == 0
        assert "seed:" in capsys.readouterr().err


def csv_module_bytes(path, header, *columns):
    """The oracle: what csv.writer writes for the same columns."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                               for c in columns]))
    return path.read_bytes()


class TestWriteCsv:
    def check(self, tmp_path, header, *columns):
        _write_csv(tmp_path / "got.csv", header, *columns)
        want = csv_module_bytes(tmp_path / "want.csv", header, *columns)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_int_and_special_float_arrays(self, tmp_path):
        ints = np.array([0, -1, 7, -(2**62), 2**62], dtype=np.int64)
        floats = np.array([0.1, 1e-300, -0.0, np.inf, np.nan])
        self.check(tmp_path, ["i", "x"], ints, floats)

    def test_lists_mixing_int_and_float(self, tmp_path):
        self.check(tmp_path, ["n", "a", "b"], [16, 64, 256],
                   [0.25, 3, 256.0], [1e-12, -2, float("inf")])

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_block_edges(self, tmp_path, rows):
        t = np.arange(rows)
        self.check(tmp_path, ["t", "C", "r"], t, t % 7 - 3, (t / 3.0).tolist())


class TestStable:
    def test_p1_gaussian_grid(self, tmp_path):
        out = tmp_path / "p1.csv"
        assert run(["stable", "--theta", "2.0", "--what", "p1",
                    "--grid=-2:2:5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        assert np.allclose(ys, np.exp(-xs**2 / 4) / (2 * math.sqrt(math.pi)))

    def test_zeta_tail_grid(self, tmp_path):
        out = tmp_path / "zt.csv"
        assert run(["stable", "--theta", "1.5", "--what", "zeta-tail",
                    "--grid", "1:4:4", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(1 / math.gamma(1 / 3))

    @pytest.mark.parametrize("what, extra, curve", [
        ("pt", ["--t", "0.7"], lambda gw, law, xs: gw.density_pt(law, 0.7, xs)),
        ("qs", ["--s", "1.3"], lambda gw, law, xs: gw.first_passage_density(law, 1.3, xs)),
        ("integral", ["--lower", "0.4"], lambda gw, law, xs: gw.passage_integral(law, 0.4, xs)),
        ("gamma", ["--a", "0.3"], lambda gw, law, xs: gw.gamma_a(law, 0.3, xs)),
    ])
    def test_curve_equals_library_call(self, tmp_path, what, extra, curve):
        import gwtrees as gw

        out = tmp_path / f"{what}.csv"
        assert run(["stable", "--theta", "1.5", "--what", what, "--grid", "0.5:3:6",
                    "--out", str(out)] + extra) == 0
        header, rows = read_csv(out)
        xs = np.linspace(0.5, 3.0, 6)
        assert header == ["x", "value"] and [float(r[0]) for r in rows] == xs.tolist()
        want = curve(gw, gw.StableLaw(theta=1.5), xs)
        assert [float(r[1]) for r in rows] == np.asarray(want).tolist()


class TestVerify:
    def test_fast_progeny_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "progeny", "--seed", "7", "--fast",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["seed"] == 7
        assert {r["name"] for r in payload["reports"]} == {"progeny_asymptotics"}
        assert "[PASS]" in capsys.readouterr().out

    def test_reports_reproducible_modulo_timing(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(["verify", "--suite", "ratio", "--seed", "3", "--fast",
                        "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            for rep in payload["reports"]:
                rep.pop("timing")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_plot_csvs(self, tmp_path):
        assert run(["verify", "--suite", "llt", "--seed", "1", "--fast",
                    "--plots-dir", str(tmp_path / "plots")]) == 0
        files = sorted((tmp_path / "plots").glob("*.csv"))
        assert len(files) == 2
        header, rows = read_csv(files[0])
        assert header[0] == "n" and len(rows) == 2

    def test_plot_csv_of_contour_report(self, tmp_path, monkeypatch, geometric):
        from gwtrees import limits

        rep = limits.contour_limit_experiment(geometric, 200, 60, seed=1)
        monkeypatch.setattr(limits, "run_suite", lambda *args, **kwargs: [rep])
        assert run(["verify", "--suite", "contour", "--seed", "1",
                    "--plots-dir", str(tmp_path / "plots")]) == (0 if rep.passed else 1)
        header, rows = read_csv(tmp_path / "plots" / "00_contour_limit_geometric.csv")
        assert header == ["t", "ks_marginal", "ks_reversal"]
        st = rep.statistics
        assert [[float(v) for v in r] for r in rows] == [
            list(r) for r in zip(st["t_list"], st["ks_marginal"], st["ks_reversal"])]

    @pytest.mark.parametrize("spec, geometric_slot, heavy_slot", [
        ("stable:1.3", ("geometric", 0.5), ("stable", 1.3)),
        ("geometric:0.5", ("geometric", 0.5), ("stable", 1.5)),
        ("law.json", ("explicit", None), ("stable", 1.5)),
    ])
    def test_law_replaces_the_default_of_its_theta(self, tmp_path, monkeypatch, spec,
                                                   geometric_slot, heavy_slot):
        from gwtrees import limits

        law_file = tmp_path / "law.json"
        law_file.write_text(json.dumps({"family": "explicit",
                                        "probabilities": [0.25, 0.5, 0.25]}))
        seen = []
        monkeypatch.setattr(limits, "run_suite",
                            lambda suite, geometric, heavy, **kw: seen.append((geometric, heavy))
                            or [])
        spec = str(law_file) if spec == "law.json" else spec
        assert run(["verify", "--suite", "progeny", "--fast", "--law", spec]) == 0
        (geometric, heavy), = seen
        assert (geometric.family, geometric.param) == geometric_slot
        assert (heavy.family, heavy.param) == heavy_slot

    def test_theta_is_not_an_option(self):
        assert run(["verify", "--suite", "progeny", "--fast", "--theta", "1.3"]) == 2


class TestCodings:
    def test_emits_vertex_and_contour(self, tmp_path):
        prefix = str(tmp_path / "tree")
        assert run(["codings", "--law", "geometric", "--n", "6", "--seed", "2",
                    "--out-prefix", prefix, "--rescale-points", "5"]) == 0
        vh, vr = read_csv(tmp_path / "tree_vertex.csv")
        assert vh == ["index", "W", "H"]
        assert len(vr) == 7  # zeta + 1 walk entries
        ch, cr = read_csv(tmp_path / "tree_contour.csv")
        assert ch == ["time", "C"]
        assert len(cr) == 11  # 2*(zeta-1) + 1
        rh, rr = read_csv(tmp_path / "tree_rescaled.csv")
        assert rh == ["t", "value"] and len(rr) == 5

    def test_rescaled_column_uses_law_scaling(self, tmp_path):
        # B_n for theta = 1.5 is (n/theta)^(1/theta), not the sqrt(n) of variance-2 laws
        from gwtrees import calibrate_bn, make_stable_family
        from gwtrees.codings import ContourSeq, rescale

        n, points = 1001, 9
        prefix = str(tmp_path / "heavy")
        assert run(["codings", "--law", "stable:1.5", "--n", str(n), "--seed", "4",
                    "--out-prefix", prefix, "--rescale-points", str(points)]) == 0
        _, cr = read_csv(tmp_path / "heavy_contour.csv")
        contour = ContourSeq(np.array([int(r[1]) for r in cr]))
        want = rescale(contour, n, calibrate_bn(make_stable_family(1.5), n), points)
        _, rr = read_csv(tmp_path / "heavy_rescaled.csv")
        got = np.array([float(r[1]) for r in rr])
        assert np.array_equal(got, want.values)

    def test_bn_is_not_an_option(self, tmp_path):
        assert run(["codings", "--law", "geometric", "--n", "6", "--seed", "2", "--out-prefix",
                    str(tmp_path / "t"), "--rescale-points", "5", "--b-n", "-3"]) == 2
        assert not any(tmp_path.iterdir())

    def test_law_without_bn_refused_before_sampling(self, tmp_path, monkeypatch):
        from gwtrees import sampler

        drawn = []
        monkeypatch.setattr(sampler, "sample_conditioned", lambda *a, **k: drawn.append(a))
        # geometric:0.4 is subcritical, so it has no stable scaling B_n
        assert run(["codings", "--law", "geometric:0.4", "--n", "50", "--seed", "1",
                    "--out-prefix", str(tmp_path / "t"), "--rescale-points", "8"]) == 2
        assert drawn == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [["--rescale-points", "1"], ["--rescale-points", "-3"],
                                       ["--n", "0"]])
    def test_bad_sizes_refused_before_sampling(self, tmp_path, monkeypatch, extra):
        from gwtrees import sampler

        drawn = []
        monkeypatch.setattr(sampler, "sample_conditioned", lambda *a, **k: drawn.append(a))
        argv = ["codings", "--law", "geometric", "--n", "50", "--seed", "1",
                "--out-prefix", str(tmp_path / "sub" / "t")]
        assert run(argv + extra) == 2  # a repeated option takes its last value
        assert drawn == [] and not any(tmp_path.iterdir())


class TestErrors:
    def test_usage_error_exit_2(self):
        assert run(["sample", "--law", "geometric"]) == 2  # missing required args

    def test_unknown_law(self, tmp_path):
        assert run(["sample", "--law", "weird", "--n", "3", "--out",
                    str(tmp_path / "x.csv")]) == 2

    def test_domain_error_exit_2(self, tmp_path):
        # stable family at theta=2 is periodic and rejected
        code = run(["sample", "--law", "stable:2.0", "--n", "3", "--out",
                    str(tmp_path / "x.csv")])
        assert code == 2

    def test_stable_numerics_error_exit_2(self, tmp_path, monkeypatch):
        from gwtrees import stable

        def fail(*args, **kwargs):
            raise stable.StableNumericsError("p1 quadrature did not converge")

        monkeypatch.setattr(stable, "density_p1", fail)
        code = run(["stable", "--theta", "1.5", "--what", "p1", "--grid=-1:1:3",
                    "--out", str(tmp_path / "p1.csv")])
        assert code == 2

    def test_negative_count_refused_before_output(self, tmp_path):
        out = tmp_path / "sub" / "w.csv"
        assert run(["sample", "--law", "geometric", "--n", "5", "--count", "-2",
                    "--seed", "1", "--out", str(out)]) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_nonpositive_n_refused_before_output(self, tmp_path, n):
        out = tmp_path / "sub" / "w.csv"
        assert run(["sample", "--law", "geometric", "--n", n, "--count", "0",
                    "--seed", "1", "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_empty_grid_refused_before_output(self, tmp_path):
        out = tmp_path / "sub" / "p1.csv"
        assert run(["stable", "--theta", "2", "--what", "p1", "--grid=0:1:0",
                    "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_exc_marginal_only_at_theta2(self, tmp_path):
        out = tmp_path / "sub" / "m.csv"
        assert run(["stable", "--theta", "1.5", "--what", "exc-marginal",
                    "--out", str(out)]) == 2
        assert not out.parent.exists()
        assert run(["stable", "--theta", "2", "--what", "exc-marginal",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xs, ys = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
        assert np.all(ys[xs <= 0] == 0.0) and np.all(ys[xs > 0] > 0.0)

    def test_law_file_errors_exit_2(self, tmp_path, capsys):
        no_param, not_object = tmp_path / "stable.json", tmp_path / "list.json"
        no_param.write_text(json.dumps({"family": "stable"}))
        not_object.write_text(json.dumps([0.5, 0.5]))
        for spec in (str(tmp_path / "missing.json"), str(no_param), str(not_object)):
            assert run(["exact", "--law", spec, "--what", "progeny", "--n", "3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        {"family": "geometric", "param": None},
        {"family": "explicit", "probabilities": {"a": 1}},
        {"family": "explicit", "probabilities": None},
        {"family": "explicit", "probabilities": [[0.5, 0.5]]},
    ])
    def test_malformed_law_file_exit_2(self, tmp_path, capsys, spec):
        # exit 1 is kept for a failed verification gate
        path = tmp_path / "law.json"
        path.write_text(json.dumps(spec))
        assert run(["exact", "--law", str(path), "--what", "progeny", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--law", "geometric", "--what", "progeny", "--n", "3", "--out"],
        ["stable", "--theta", "2", "--what", "p1", "--grid=0:1:3", "--out"],
        ["verify", "--suite", "progeny", "--seed", "7", "--fast", "--out"],
        ["verify", "--suite", "progeny", "--seed", "7", "--fast", "--plots-dir"],
    ])
    def test_uncreatable_output_exit_2(self, tmp_path, capsys, argv):
        # exit 1 is kept for a failed verification gate
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(argv + [str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--plots-dir"])
    def test_verify_checks_outputs_before_any_suite(self, tmp_path, capsys, monkeypatch, flag):
        from gwtrees import limits

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the output paths were checked")

        monkeypatch.setattr(limits, "run_suite", no_suite)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["verify", "--suite", "all", flag, str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GWTREES_OUT_DIR", str(tmp_path))
        assert run(["sample", "--law", "geometric", "--n", "2", "--seed", "1",
                    "--emit", "walk", "--out", "sub/w.csv"]) == 0
        assert (tmp_path / "sub" / "w.csv").exists()
