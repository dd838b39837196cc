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
from .limits import ExperimentReport, jsonify
from .offspring import (
    OffspringLaw,
    calibrate_bn,
    law_from_spec,
    make_geometric,
    make_stable_family,
)

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


_NAMED_LAWS = {"geometric": 0.5, "stable": 1.5}  # --law name -> its default param


def _load_law(spec: str) -> OffspringLaw:
    """'geometric[:p]' or 'stable[:theta]', which win over a file of that name; any other
    spec is the path of a JSON law file."""
    name, _, param = spec.partition(":")
    if name in _NAMED_LAWS:
        try:
            value = float(param) if param else _NAMED_LAWS[name]
        except ValueError:
            raise ValueError("--law takes geometric[:p], stable[:theta] or a JSON law file, "
                             f"got {spec!r}") from None
        return OffspringLaw(name, value)
    with open(spec) as fh:
        return law_from_spec(json.load(fh))


def _int_slot(col) -> Optional[int]:
    """Bytes per row of an integer ndarray or range column: a sign byte if it has negatives,
    then 4 per base-10**4 group of its widest value.  None for other columns."""
    if isinstance(col, range):
        col = np.array([*col[:1], *col[-1:]])  # its extremes are its ends
    if not isinstance(col, np.ndarray) or col.dtype.kind not in "iu":
        return None
    lo, hi = int(col.min(initial=0)), int(col.max(initial=0))
    return (lo < 0) + 4 * -(-len(str(max(hi, -lo))) // 4)


def _digit_lanes() -> np.ndarray:
    """Four ASCII digits per native uint32, indexed by a base-10**4 group: zero-padded on
    [0, 10**4) (inner groups), NUL-led on [10**4, 2 * 10**4) (a value's leading group; 0
    prints "0"), and all NUL at 2 * 10**4 (groups above a value's top)."""
    pad = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    lead = pad * (np.cumsum(pad > ord("0"), axis=1) > 0)
    lead[0, -1] = ord("0")
    return np.concatenate([pad, lead, [[0, 0, 0, 0]]]).astype(np.uint8).view(np.uint32).ravel()


_LANES = _digit_lanes()  # at import: built lazily mid-run it pins glibc's heap top (+8.4 MB RSS)
_LEAD = np.uint32(10**4)  # index shift from a zero-padded group to its NUL-led form


def _int_field(block, out: np.ndarray) -> None:
    """Print an integer block into out, its (rows, _int_slot) bytes: a sign ("-" or NUL)
    when the slot has 4k + 1 bytes, then k base-10**4 groups, most significant first,
    each one _LANES lookup written through a uint32 view of its 4 bytes."""
    if isinstance(block, range):
        block = np.arange(block.start, block.stop, block.step)
    if out.shape[1] % 4:
        np.multiply(block < 0, np.uint8(ord("-")), out=out[:, 0])
        out, block = out[:, 1:], np.abs(block, dtype=np.int64)  # -2**63 stays, 2**63 unsigned
    lanes = out.view(np.uint32)
    top = lanes.shape[1] - 1
    q = block.astype(np.uint32 if top < 2 else np.uint64)  # uint32 // is several times cheaper
    for j in range(top, -1, -1):  # least significant group first
        nxt = q // 10**4 if j else 0  # the column's top group has q < 10**4
        idx = q - nxt * 10**4 + (nxt == 0) * _LEAD  # NUL-led where it is the value's top
        if j < top:
            idx += (q == 0) * _LEAD  # above the value's top: all NUL
        lanes[:, j] = _LANES.take(idx)
        q = nxt


def _str_field(block) -> np.ndarray:
    """str() of each item (a 3 in a list stays "3"): a (rows, width) uint8 matrix, NUL-padded."""
    items = block.tolist() if isinstance(block, np.ndarray) else block
    text = np.array([str(x) for x in items], dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(items), -1)


def _write_csv(path: Path, header: List[str], *columns) -> None:
    """Equal-length columns in csv.writer's bytes: str() fields, CRLF rows.

    Integer ndarrays and ranges are printed four digits per table lookup and never become
    Python objects; other columns (float arrays, lists) take str() of each item.  Each
    block of CSV_BLOCK rows is one row-major (rows, bytes per row) uint8 matrix: a
    NUL-padded slot per field, separators and CRLF as constant byte columns, written
    without its NULs.
    """
    slots = [_int_slot(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write(f"# schema: {CSV_SCHEMA}\n{','.join(header)}\r\n".encode())
        for start in range(0, len(columns[0]), CSV_BLOCK):
            blocks = [col[start : start + CSV_BLOCK] for col in columns]
            texts = [None if w else _str_field(b) for b, w in zip(blocks, slots)]
            widths = [w or t.shape[1] for w, t in zip(slots, texts)]
            buf = np.empty((len(blocks[0]), sum(widths) + len(widths) + 1), np.uint8)
            at = 0
            for block, text, width in zip(blocks, texts, widths):
                if text is None:
                    _int_field(block, buf[:, at : at + width])
                else:
                    buf[:, at : at + width] = text
                buf[:, at + width] = ord(",")
                at += width + 1
            buf[:, -2], buf[:, -1] = ord("\r"), ord("\n")  # over the last separator
            fh.write(buf.tobytes().translate(None, b"\0"))


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
        rep = limits.check_absolute_continuity(law, args.n, args.a)
        out["report"] = rep.to_dict()  # nested, as verify nests its reports
    text = json.dumps(out, indent=2, default=jsonify)
    if args.out:
        _out_path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if out.get("report", {}).get("passed", True) else 1


# -- stable -----------------------------------------------------------------------


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"--grid takes lo:hi:count, got {spec!r}") from None
    if count < 1:
        raise ValueError(f"--grid needs a point count >= 1, got {count}")
    return np.linspace(lo, hi, count)


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
    plots_dir = _out_path(args.plots_dir) if args.plots_dir else None
    if plots_dir:
        plots_dir.mkdir(exist_ok=True)
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
        line = f"[{'PASS' if r.passed else 'FAIL'}] {r.name}"
        if r.notes:
            line += f"  ({r.notes})"
        print(line)
    if out:
        out.write_text(json.dumps(payload, indent=2, default=jsonify) + "\n")
    if plots_dir:
        _emit_plot_csvs(reports, plots_dir)
    return 0 if payload["passed"] else 1


def _emit_plot_csvs(reports: List[ExperimentReport], plots_dir: Path) -> None:
    # per report: n_list (header "n") or t_list ("t"), then its other lists of that length;
    # a report with neither gets one row of its scalar statistics, headed by their names
    for i, r in enumerate(reports):
        st = r.statistics
        index = next((k for k in ("n_list", "t_list") if k in st), None)
        if index is None:
            header = [k for k, v in st.items() if isinstance(v, (int, float))]
            columns = [[st[k]] for k in header]
        else:
            cols = [k for k, v in st.items()
                    if k != index and isinstance(v, list) and len(v) == len(st[index])]
            header, columns = [index[0]] + cols, [st[index]] + [st[c] for c in cols]
        _write_csv(plots_dir / f"{i:02d}_{r.name}_{r.parameters.get('family', '')}.csv",
                   header, *columns)


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
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
