"""Command-line entry point wiring laws, samplers, exact tables and experiments.

Subcommands: sample, exact, stable, verify, codings.  Reports are JSON with a
"schema" key; curves are CSV with a "# schema:" comment line.  Every emitted
report carries the seed; when no seed is given one is generated and printed.
Exit status: 0 success, 1 failed verification gate, 2 usage, law-file or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import codings, exactlaw, limits, sampler, stable
from .offspring import (
    OffspringLaw,
    calibrate_bn,
    law_from_spec,
    make_geometric,
    make_stable_family,
)
from .report import ExperimentReport, jsonify

CSV_SCHEMA = "gwtrees.csv/1"
CSV_BLOCK = 1 << 16  # rows per block: _write_csv's temporaries are O(CSV_BLOCK), not O(rows)


def _out_path(raw: str) -> Path:
    """Relative outputs may be redirected via GWTREES_OUT_DIR (the only env knob)."""
    base = os.environ.get("GWTREES_OUT_DIR")
    p = Path(raw)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _load_law(spec: str) -> OffspringLaw:
    """'geometric', 'geometric:p', 'stable:theta', or a JSON law file path."""
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        with open(spec) as fh:
            return law_from_spec(json.load(fh))
    name, _, param = spec.partition(":")
    if name == "geometric":
        return make_geometric(float(param) if param else 0.5)
    if name == "stable":
        return make_stable_family(float(param) if param else 1.5)
    raise ValueError(f"unknown law {spec!r} (use geometric[:p], stable[:theta], or a file)")


def _int_span(col):
    """(min, max) of an integer ndarray or a range as Python ints; None for other columns."""
    if isinstance(col, range):
        return (min(col[0], col[-1]), max(col[0], col[-1])) if col else (0, 0)
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return (int(col.min()), int(col.max())) if col.size else (0, 0)
    return None


def _int_field(block, lo: int, hi: int) -> np.ndarray:
    """Decimals of an integer block in [lo, hi]: a (width, rows) uint8 matrix, right-aligned
    and NUL-padded, width fitting the column's widest value."""
    if isinstance(block, range):
        block = np.arange(block.start, block.stop, block.step)
    # uint32 // 10 is ~5x cheaper than int64's (and % 10 ~10x dearer than // 10);
    # wrap-around negation gives |x| exactly, -2**63 included, where np.abs overflows
    q = block.astype(np.uint32 if max(hi, -lo) < 2**32 else np.uint64)
    if lo < 0:
        neg = np.flatnonzero(block < 0)
        q[neg] = -q[neg]
    out = np.empty((max(len(str(lo)), len(str(hi))), len(q)), np.uint8)
    nxt = q // 10
    out[-1] = q - nxt * 10 + 48
    for row in out[-2::-1]:
        q, nxt = nxt, nxt // 10
        row[:] = (q - nxt * 10 + 48) * (q != 0)  # NUL once the leading digit is written
    if lo < 0:
        out[(out[:, neg] != 0).argmax(axis=0) - 1, neg] = ord("-")
    return out


def _str_field(block) -> np.ndarray:
    """str() of each item (a 3 in a list stays "3"): a (width, rows) uint8 matrix, NUL-padded."""
    items = block.tolist() if isinstance(block, np.ndarray) else block
    text = np.array([str(x) for x in items], dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(items), -1).T


def _write_csv(path: Path, header: List[str], *columns) -> None:
    """Equal-length columns in csv.writer's bytes: str() fields, CRLF rows.

    Integer ndarrays and ranges are printed by numpy digit arithmetic and never become
    Python objects; other columns (float arrays, lists) take str() of each item.  Each
    block of CSV_BLOCK rows is laid out as one (bytes per row, rows) uint8 matrix with
    separators, transposed, and written without its NUL padding.
    """
    spans = [_int_span(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write(f"# schema: {CSV_SCHEMA}\n{','.join(header)}\r\n".encode())
        for lo in range(0, len(columns[0]), CSV_BLOCK):
            parts = []
            for col, span in zip(columns, spans):
                block = col[lo : lo + CSV_BLOCK]
                parts.append(_str_field(block) if span is None else _int_field(block, *span))
                parts.append(np.full((1, len(block)), ord(","), np.uint8))
            parts[-1] = np.tile(np.array([[13], [10]], np.uint8), (1, len(block)))  # \r\n
            rows = np.concatenate(parts).T.ravel()
            fh.write(rows[rows != 0])


def _resolve_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbits(48)
        print(f"seed: {seed} (generated)", file=sys.stderr)
        return seed
    return args.seed


# -- sample -----------------------------------------------------------------------


_EMIT = {  # --emit -> (time column, value column, coding of a tree)
    "tree": ("index", "child_count", lambda tree: tree.child_counts),
    "walk": ("index", "W", lambda tree: codings.walk_from_tree(tree).values),
    "height": ("index", "H", lambda tree: codings.height_from_tree(tree).values),
    "contour": ("time", "C", lambda tree: codings.contour_from_tree(tree).values),
}


def _check_n(args) -> None:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")


def _cmd_sample(args) -> int:
    _check_n(args)
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    law = _load_law(args.law)
    seed = _resolve_seed(args)
    tcol, col, coding = _EMIT[args.emit]
    values = [coding(sampler.sample_conditioned(law, args.n, rng=sampler.derive_rng(seed, rep)))
              for rep in range(args.count)]
    sizes = [v.size for v in values]
    head = [np.arange(0)]  # keeps --count 0 a header-only file
    _write_csv(_out_path(args.out), ["sample", tcol, col], np.repeat(np.arange(len(sizes)), sizes),
               np.concatenate(head + [np.arange(s) for s in sizes]), np.concatenate(head + values))
    return 0


# -- exact ------------------------------------------------------------------------


def _cmd_exact(args) -> int:
    law = _load_law(args.law)
    out = {"schema": "gwtrees.exact/1", "law": args.law, "what": args.what, "n": args.n}
    if args.what == "walk":
        table = exactlaw.walk_pmf(law, args.n)
        out["offset"] = table.offset
        out["truncated_mass"] = table.truncated_mass
        out["pmf"] = table.masses.tolist()
    elif args.what == "progeny":
        table = exactlaw.progeny_pmf(law, args.n)
        out["truncated_mass"] = table.truncated_mass
        out["pmf"] = {str(p): table.prob(p) for p in range(1, args.n + 1)}
        out["value_at_n"] = table.prob(args.n)
    elif args.what == "phi":
        out["phi"] = exactlaw.phi(law, args.n, args.j)
        out["phi_star"] = exactlaw.phi_star(law, args.n, args.j)
        out["j"] = args.j
    elif args.what == "ratio":
        out["a"] = args.a
        out["k"] = args.k
        window = exactlaw.discrete_ratio_window(law, args.n, args.a, args.k, args.k)
        out["ratio"] = float(window[0])
    elif args.what == "ac-check":
        rep = exactlaw.check_absolute_continuity(law, args.n, args.a)
        out.update(rep.to_dict())
    text = json.dumps(out, indent=2)
    if args.out:
        _out_path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.what == "ac-check" and not out.get("passed", True):
        return 1
    return 0


# -- stable -----------------------------------------------------------------------


def _parse_grid(spec: str) -> np.ndarray:
    lo, hi, count = spec.split(":")
    if int(count) < 1:
        raise ValueError(f"--grid needs a point count >= 1, got {count}")
    return np.linspace(float(lo), float(hi), int(count))


def _cmd_stable(args) -> int:
    law = stable.StableLaw(theta=args.theta)
    xs = _parse_grid(args.grid)
    if args.what == "p1":
        ys = np.asarray(stable.density_p1(law, xs))
    elif args.what == "pt":
        ys = np.asarray(stable.density_pt(law, args.t, xs))
    elif args.what == "qs":
        ys = np.asarray(stable.first_passage_density(law, args.s, xs))
    elif args.what == "integral":
        ys = np.asarray(stable.passage_integral(law, args.lower, xs))
    elif args.what == "gamma":
        ys = np.asarray(stable.gamma_a(law, args.a, xs))
    elif args.what == "zeta-tail":
        ys = np.array([stable.zeta_tail(law, float(x)) for x in xs])
    else:  # exc-marginal; argparse restricts the choices
        if args.theta != 2.0:
            raise ValueError("--what exc-marginal is known only at --theta 2")
        ys = np.asarray(stable.excursion_marginal_theta2(args.t, xs))
    _write_csv(_out_path(args.out), ["x", "value"], xs, ys)
    return 0


# -- verify -----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    geometric = make_geometric(0.5)
    heavy = make_stable_family(1.5)
    if args.law:
        picked = _load_law(args.law)
        if picked.theta == 2.0:
            geometric = picked
        else:
            heavy = picked
    out = _out_path(args.out) if args.out else None  # both made before the suites run
    plots_dir = Path(args.plots_dir) if args.plots_dir else None
    if plots_dir:
        plots_dir.mkdir(parents=True, exist_ok=True)
    seed = _resolve_seed(args)
    reports = limits.run_suite(args.suite, geometric, heavy, seed=seed, fast=args.fast)
    payload = {
        "schema": "gwtrees.verify/1",
        "suite": args.suite,
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    for r in reports:
        line = r.summary_line()
        if r.notes:
            line += f"  ({r.notes})"
        print(line)
    if out:
        out.write_text(json.dumps(payload, indent=2, default=jsonify) + "\n")
    if plots_dir:
        _emit_plot_csvs(reports, plots_dir)
    return 0 if payload["passed"] else 1


def _emit_plot_csvs(reports: List[ExperimentReport], plots_dir: Path) -> None:
    for i, r in enumerate(reports):
        st = r.statistics
        name = f"{i:02d}_{r.name}_{r.parameters.get('family', '')}"
        if "n_list" in st:
            cols = [k for k, v in st.items()
                    if isinstance(v, list) and len(v) == len(st["n_list"])]
            _write_csv(plots_dir / f"{name}.csv", ["n"] + cols,
                       st["n_list"], *[st[c] for c in cols])
        elif r.name == "contour_limit":
            _write_csv(plots_dir / f"{name}.csv", ["t", "ks_marginal", "ks_reversal"],
                       st["t_list"], st["ks_marginal"], st["ks_reversal"])


# -- codings ----------------------------------------------------------------------


def _cmd_codings(args) -> int:
    _check_n(args)
    if args.rescale_points < 0 or args.rescale_points == 1:
        raise ValueError(f"--rescale-points must be 0 (none) or >= 2, got {args.rescale_points}")
    law = _load_law(args.law)
    b_n = calibrate_bn(law, args.n) if args.rescale_points else None  # before any tree is drawn
    seed = _resolve_seed(args)
    tree = sampler.sample_conditioned(law, args.n, rng=sampler.derive_rng(seed, 0))
    walk = codings.walk_from_tree(tree)
    height = codings.height_from_tree(tree)
    contour = codings.contour_from_tree(tree)
    prefix = args.out_prefix
    if args.rescale_points:
        t, scaled = codings.rescale(contour, n=args.n, b_n=b_n, grid_points=args.rescale_points)
        _write_csv(_out_path(prefix + "_rescaled.csv"), ["t", "value"], t, scaled)
    _write_csv(_out_path(prefix + "_vertex.csv"), ["index", "W", "H"], range(walk.values.size),
               walk.values, np.append(height.values, -1))  # zeta+1 walk entries: pad H
    _write_csv(_out_path(prefix + "_contour.csv"), ["time", "C"],
               range(contour.values.size), contour.values)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gwtrees",
        description="Conditioned Galton-Watson trees: exact sampling, exact laws, "
        "stable-density numerics and scaling-limit verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="sample conditioned trees and emit a coding")
    ps.add_argument("--law", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--count", type=int, default=1)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--emit", choices=("tree", "walk", "height", "contour"), default="walk")
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=_cmd_sample)

    pe = sub.add_parser("exact", help="exact finite-n laws and identities")
    pe.add_argument("--law", required=True)
    pe.add_argument("--what", choices=("walk", "progeny", "phi", "ratio", "ac-check"),
                    required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--j", type=int, default=1)
    pe.add_argument("--a", type=float, default=0.5)
    pe.add_argument("--k", type=int, default=0)
    pe.add_argument("--out", default=None)
    pe.set_defaults(fn=_cmd_exact)

    pt = sub.add_parser("stable", help="stable-density curves to CSV")
    pt.add_argument("--theta", type=float, required=True)
    pt.add_argument("--what", choices=("p1", "pt", "qs", "integral", "gamma",
                                       "zeta-tail", "exc-marginal"), required=True)
    pt.add_argument("--grid", default="-6:6:241",
                    help="lo:hi:count (use --grid=-6:6:241 for negative bounds)")
    pt.add_argument("--t", type=float, default=0.5)
    pt.add_argument("--s", type=float, default=1.0)
    pt.add_argument("--a", type=float, default=0.5)
    pt.add_argument("--lower", type=float, default=0.0)
    pt.add_argument("--out", required=True)
    pt.set_defaults(fn=_cmd_stable)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", choices=limits.SUITES + ("all",), default="all")
    pv.add_argument("--law", default=None, help="override one of the two default laws")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--fast", action="store_true", help="reduced sizes (smoke test)")
    pv.add_argument("--out", default=None)
    pv.add_argument("--plots-dir", default=None)
    pv.set_defaults(fn=_cmd_verify)

    pc = sub.add_parser("codings", help="emit the codings of one sampled tree")
    pc.add_argument("--law", required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--out-prefix", required=True)
    pc.add_argument("--rescale-points", type=int, default=0)
    pc.set_defaults(fn=_cmd_codings)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (exactlaw.ExactLawError, sampler.SamplerError, stable.StableNumericsError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
