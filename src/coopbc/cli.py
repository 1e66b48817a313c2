"""Command-line surface: region computation, sweeps, figure data, checks, simulation.

Exit codes are a stable contract: 0 success, 1 a requested check failed
(``MonotonicityError`` or a failed comparison), 2 invalid input (any
``ValueError``, ``OSError`` or ``MemoryError``).  All emitted files use LF
line endings and 12 significant digits so they diff cleanly across platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import dnfsim, oracle, regions
from .becbsc import BecBscBC
from .channel import AuxiliaryJoint, ChannelPair, DiscreteChannel, is_more_capable
from .gaussian import GaussianBC
from .numerics import DEFAULT_TOL, LogBase, Tolerance
from .regions import _fmt

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


FAMILIES = {"gaussian": GaussianBC, "becbsc": BecBscBC}
# the families whose channels are transition matrices (ordering scan, grid oracle)
PAIRED = [name for name, bc in FAMILIES.items() if hasattr(bc, "pair")]

# channel and default cooperation rates in bits of each figure dataset
FIGURES = {
    "fig2": (GaussianBC(5.0, 0.5), (0.0, 0.25, 0.5, 0.75, 1.0)),
    "fig3": (BecBscBC(0.1, 0.2), (0.0, 0.2, 0.4, 0.6)),
}


def _emit_boundary(path: Path, boundary, fmt: str) -> Path:
    # append rather than with_suffix: stem may contain dots (c12 values)
    path = path.parent / f"{path.name}.{fmt}"
    to_text = regions.boundary_to_json if fmt == "json" else regions.boundary_to_csv
    _write(path, to_text(boundary))
    return path


def cmd_region(args) -> int:
    base, tol = LogBase(args.base), Tolerance(abs_tol=args.tol)
    bc = FAMILIES[args.family](*args.params)
    fam = bc.family(args.c12, base)
    a_th = bc.threshold(args.c12, base, tol)
    r1_th = fam.f1(a_th)
    # every frontier is computed and written before anything is printed
    written = [
        _emit_boundary(Path(args.out) / name, sweep(fam, args.grid), args.format)
        for name, sweep in (("inner", regions.inner_boundary), ("outer", regions.outer_boundary))
        if args.which in (name, "both")
    ]
    print(f"C1 = {_fmt(fam.c1)} {args.base}")
    print(f"C2 = {_fmt(fam.c2)} {args.base}")
    print(f"alpha_th = {_fmt(a_th)}")
    print(f"r1_th = {_fmt(r1_th)} {args.base}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_fig(args) -> int:
    which = args.command
    base = LogBase(args.base)
    tol = Tolerance(abs_tol=args.tol) if "tol" in args else DEFAULT_TOL
    bc, default_c12 = FIGURES[which]
    if args.c12:
        c12_list = [float(v) for v in args.c12.split(",")]
    else:
        c12_list = [c12 * base.one_bit() for c12 in default_c12]
    # every rate and threshold is checked before the first file is written
    stems = {}  # frontier file stem -> the rate that writes it
    for c12 in c12_list:
        stem = f"{which}_c12_{_fmt(c12)}"
        if stem in stems:
            raise ValueError(
                f"c12 rates {stems[stem]!r} and {c12!r} both write {stem}.{args.format}"
            )
        stems[stem] = c12
    families = [bc.family(c12, base) for c12 in c12_list]
    r1_ths = [fam.f1(bc.threshold(c12, base, tol)) for c12, fam in zip(c12_list, families)]
    out = Path(args.out)
    diamonds = ["c12,r1,r2"]
    for (stem, c12), fam, r1_th in zip(stems.items(), families, r1_ths):
        boundary = regions.inner_boundary(fam, args.grid)
        p = _emit_boundary(out / stem, boundary, args.format)
        diamonds.append(f"{_fmt(c12)},{_fmt(r1_th)},{_fmt(fam.c1 - r1_th)}")
        print(f"wrote {p}")
    _write(out / "diamonds.csv", "\n".join(diamonds) + "\n")
    print(f"wrote {out / 'diamonds.csv'}")
    return EXIT_OK


def _load_pair(args) -> ChannelPair:
    if args.family == "json":
        ch1 = DiscreteChannel.from_json(Path(args.params_raw[0]).read_text())
        ch2 = DiscreteChannel.from_json(Path(args.params_raw[1]).read_text())
        return ChannelPair(ch1, ch2)
    return FAMILIES[args.family](*map(float, args.params_raw)).pair()


def cmd_check_mc(args) -> int:
    pair = _load_pair(args)
    verdict = is_more_capable(
        pair, resolution=args.resolution, base=LogBase(args.base), tol=Tolerance(abs_tol=args.tol)
    )
    if verdict.holds:
        print(f"holds (min gap {_fmt(verdict.min_gap)} {args.base}; {verdict.note})")
        return EXIT_OK
    witness = ",".join(_fmt(v) for v in verdict.witness.probs)
    print(f"violated: gap {_fmt(verdict.min_gap)} {args.base} at P_X = [{witness}]")
    return EXIT_CHECK_FAILED


def cmd_oracle_compare(args) -> int:
    if not (math.isfinite(args.budget) and args.budget >= 0):
        raise ValueError(f"--budget must be finite and >= 0, got {args.budget}")
    base = LogBase(args.base)
    bc = FAMILIES[args.family](*args.params)
    pair = bc.pair()
    spec = oracle.GridSpec(steps=args.steps, u_cardinality=args.u_size)
    fam = bc.family(args.c12, base)
    # a bad --grid fails before the scan; no file is written before every distance is known
    params = [sweep(fam, args.grid) for sweep in (regions.inner_boundary, regions.outer_boundary)]
    t0 = time.perf_counter()
    found = oracle.oracle_both(pair, fam.c12, spec, base, threads=args.threads)
    runtime = time.perf_counter() - t0
    dev = [oracle.frontier_deviation(g, p) for g, p in zip(found, params)]
    dom = [oracle.frontier_dominance(g, p) for g, p in zip(found, params)]
    sides = ("inner", "outer")
    out = Path(args.out)
    for side, grid_front, param in zip(sides, found, params):
        _emit_boundary(out / f"oracle_{side}", grid_front, args.format)
        _emit_boundary(out / f"parametric_{side}", param, args.format)
    meta = {
        "u_cardinality": spec.u_cardinality,
        "steps": spec.steps,
        "evaluations": oracle.evaluation_count(pair, spec),
        "runtime_seconds": round(runtime, 3),
        "inner_deviation": dev[0],
        "outer_deviation": dev[1],
        "inner_dominance": dom[0],
        "outer_dominance": dom[1],
    }
    _write(out / "meta.json", json.dumps(meta, indent=2) + "\n")
    for side, d, m in zip(sides, dev, dom):
        print(f"{side} deviation = {_fmt(d)} {args.base}, dominance = {_fmt(m)} {args.base}")
    print(f"wrote frontiers and meta.json under {out}")
    if max(dev) > args.budget:
        print(f"FAIL: deviation exceeds budget {_fmt(args.budget)}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    base, tol = LogBase(args.base), Tolerance(abs_tol=args.tol)
    bc = FAMILIES[args.family](*args.params)
    # the pair's ordering first: an unordered pair also makes the default grid decreasing
    c1, c2, _ = regions.check_c12(bc, 0.0, base)
    if args.c12:
        grid = [float(v) for v in args.c12.split(",")]
    else:
        grid = list(np.linspace(0.0, c1 - c2, args.points))
    rows = regions.sweep_thresholds(lambda c12: bc.family(c12, base), grid, tol)
    out = Path(args.out) / "thresholds.csv"
    _write(out, regions.thresholds_to_csv(rows, c1))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    channels = FAMILIES[args.family](*args.params)
    law = None
    if args.input_law:
        law = AuxiliaryJoint.from_dict(json.loads(Path(args.input_law).read_text()))
    cfg = dnfsim.CodeConfig(
        n=args.n, r1=args.r1, r2=args.r2, c12=args.c12, seed=args.seed, input_law=law,
        power_split=args.power_split, codeword_budget=args.codeword_budget,
    )
    report = dnfsim.simulate(cfg, channels, args.trials, threads=args.threads)
    out = Path(args.out)
    _write(out / "report.json", report.to_json() + "\n")
    row_file = out / "sim_sweep.csv"
    columns = {
        "channel": args.family,
        "n": str(args.n),
        "r1": _fmt(args.r1),
        "r2": _fmt(args.r2),
        "c12": _fmt(args.c12),
        "trials": str(args.trials),
        "seed": str(args.seed),
    }
    # then the report's fields in order; trials is already there
    for name, value in vars(report).items():
        columns.setdefault(name, _fmt(value) if isinstance(value, float) else str(value))
    header = "" if row_file.exists() else ",".join(columns) + "\n"
    with open(row_file, "a", newline="\n") as fh:
        fh.write(header + ",".join(columns.values()) + "\n")
    print(report.to_json())
    print(f"wrote {out / 'report.json'} and appended to {row_file}")
    return EXIT_OK


_FLAGS = {
    "base": dict(choices=["bits", "nats"], default="bits"),
    "grid": dict(type=int, default=2001, help="boundary sampling grid size"),
    "format": dict(choices=["csv", "json"], default="csv"),
    "threads": dict(type=int, default=1),
    "seed": dict(type=int, default=0),
}


def _add_common(p: argparse.ArgumentParser, *flags: str, tol: str = "") -> None:
    """--out, plus the named flags and --tol (given its help) that the subcommand
    reads; a flag it would ignore is not registered, so passing one exits 2."""
    p.add_argument("--out", default="out", help="output directory")
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    if tol:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL.abs_tol, help=tol)


_THRESHOLD_TOL = "bisection width of the becbsc threshold (the Gaussian threshold is closed-form)"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coopbc",
        description="Capacity bounds and decode-and-forward simulation for "
        "cooperative broadcast channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="inner/outer boundary for one cooperation rate")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("params", type=float, nargs=2, help="s1 s2 (gaussian) or tau1 p2 (becbsc)")
    p.add_argument("--c12", type=float, required=True)
    p.add_argument("--which", choices=["inner", "outer", "both"], default="both")
    _add_common(p, "base", "grid", "format", tol=_THRESHOLD_TOL)
    p.set_defaults(func=cmd_region)

    for name, tol in (("fig2", ""), ("fig3", _THRESHOLD_TOL)):
        p = sub.add_parser(name, help=f"emit the {name} dataset (frontier per c12 + diamonds)")
        p.add_argument("--c12", default="", help="comma-separated cooperation rates")
        _add_common(p, "base", "grid", "format", tol=tol)
        p.set_defaults(func=cmd_fig)

    p = sub.add_parser("check-mc", help="scan for a violation of the channel ordering")
    p.add_argument("family", choices=[*PAIRED, "json"])
    p.add_argument("params_raw", nargs=2, help="tau1 p2 (becbsc) or two channel-matrix JSON paths")
    p.add_argument("--resolution", type=int, default=10_000,
                   help="grid points over P_X(0) for binary inputs; larger alphabets always "
                   "scan a 100-step simplex lattice plus 10^5 Dirichlet samples")
    _add_common(p, "base", tol="slack below zero allowed in the ordering gap")
    p.set_defaults(func=cmd_check_mc)

    p = sub.add_parser("oracle-compare", help="grid oracle vs parametric frontiers (becbsc)")
    p.add_argument("family", choices=PAIRED)
    p.add_argument("params", type=float, nargs=2, help="tau1 p2")
    p.add_argument("--c12", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--u-size", type=int, default=2, dest="u_size")
    p.add_argument("--budget", type=float, default=5e-3, help="max allowed frontier deviation")
    _add_common(p, "base", "grid", "format", "threads")
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("sweep", help="threshold table over a cooperation-rate grid")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("params", type=float, nargs=2)
    p.add_argument("--c12", default="", help="comma-separated grid (default: linspace)")
    p.add_argument("--points", type=int, default=50)
    _add_common(p, "base", tol="bisection width of each threshold")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo run of the layered coding scheme")
    p.add_argument("--channel", choices=list(FAMILIES), required=True, dest="family")
    p.add_argument("--params", type=float, nargs=2, required=True,
                   help="tau1 p2 (becbsc) or s1 s2 (gaussian)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--c12", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--input-law", default="", help="path to an auxiliary-joint JSON")
    p.add_argument("--power-split", type=float, default=None)
    p.add_argument("--codeword-budget", type=int, default=dnfsim.CodeConfig.codeword_budget)
    # code sizes are ceil(2**(n*r)), so the rates are in bits and --base is not taken
    _add_common(p, "threads", "seed")
    p.set_defaults(func=cmd_simulate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except regions.MonotonicityError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
