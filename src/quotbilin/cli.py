"""Command-line front end: validation, tangent reports, membership, dimension
grids, reducibility, secant dimensions, classification, limits, censuses.

Each subcommand takes ``--out FILE`` and only those of ``--field``,
``--seed``, ``--cap`` and ``--check`` that it reads (see ``build_parser``).
Handlers read the parsed ``argparse`` namespace.  Reports are JSON (CSV for
flat tables); field elements are serialized as strings.  Identical arguments
give identical output apart from the timestamp field.  Exit codes: 0
success, 1 validation/membership failure, 2 infeasible enumeration cap,
3 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from .exactalg import GF, InfeasibleEnumeration, matrix_to_json, parse_field
from .modcore import InvalidPoint, framed_from_json, validate_framed
from .quot import degenerate_grassmannian_check, hom_KM_univariate, quot_dims, quot_tangent
from .bilin import (
    bilin_dims,
    bilin_from_json,
    bilin_tangent,
    bilin_to_json,
    factor_membership_detail,
    validate_bilin,
)
from .tensorlab import (
    brute_force_rank_fq,
    classify_2x2x2,
    secant_dimension,
    tensor_from_json,
    tensor_to_json,
)
from .cases222 import enumerate_222, limit_target_name, named_tensor, verify_limit

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_MALFORMED = 3


def _emit(args: argparse.Namespace, payload: dict, csv_rows=None, csv_header=None) -> None:
    payload = dict(payload)
    payload["command"] = args.command
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        if csv_rows is not None:
            csv_path = args.out.rsplit(".", 1)[0] + ".csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(csv_header)
                writer.writerows(csv_rows)
    else:
        print(text)
        if csv_rows is not None:
            writer = csv.writer(sys.stdout)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(obj).__name__}")
    return obj


def _parse_grid(spec: str) -> dict[str, list[int]]:
    """Parse grid ranges like ``n=1..2 d=2..3 r=2..4`` (space or comma
    separated) over the keys n, d, r, r1 and r2, each at most once; single
    values allowed, and ``r`` sets r1 and r2 together, so it excludes them."""
    out = {}
    for part in spec.replace(",", " ").split():
        key, _, rng = part.partition("=")
        if not rng:
            raise ValueError(f"bad grid component {part!r}")
        if key not in ("n", "d", "r", "r1", "r2"):
            raise ValueError(f"unknown grid key {key!r} in {part!r}; known: n, d, r, r1, r2")
        if key in out:
            raise ValueError(f"grid key {key!r} given twice in {spec!r}")
        lo, _, hi = rng.partition("..")
        lo, hi = int(lo), int(hi or lo)
        if lo > hi:
            raise ValueError(f"empty grid range {part!r}")
        out[key] = list(range(lo, hi + 1))
    if "r" in out and ("r1" in out or "r2" in out):
        raise ValueError("dims --grid takes r, or r1 and r2, not both")
    return out


def _bilin_payload(n: int, d: int, r1: int, r2: int) -> dict:
    """The bilin dimension report shared by ``dims --r1 --r2`` and
    ``reducibility``."""
    rep = bilin_dims(n, d, r1, r2)
    return {"main_dim": rep.main_dim,
            "degenerate_dim": rep.degenerate_dim,
            "reducible_by_count": rep.reducible_by_count,
            "reducible_by_secant": rep.reducible_by_secant,
            "irreducible": rep.irreducible,
            "reasons": rep.reasons}


# -- command handlers -----------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load_json(args.point)
    if "Pihat" in obj:
        point = bilin_from_json(obj)
        rep = validate_bilin(point)
        payload = {
            "kind": "bilin",
            "ok": rep.ok,
            "m1_ok": rep.m1_ok,
            "m2_ok": rep.m2_ok,
            "z_commutes": rep.z_commutes,
            "equivariant": rep.equivariant,
            "surjective": rep.surjective,
            "failure": rep.failure,
        }
    else:
        mod = framed_from_json(obj)
        rep = validate_framed(mod)
        payload = {
            "kind": "framed",
            "ok": rep.ok,
            "commutes": rep.commutes,
            "generates": rep.generates,
            "commutator_witness": list(rep.commutator_witness) if rep.commutator_witness else None,
        }
    _emit(args, payload)
    return EXIT_OK if rep.ok else EXIT_INVALID


def _cmd_tangent(args: argparse.Namespace) -> int:
    oracle_scope = "--oracle runs for tangent quot at n = 1 only"
    if args.oracle and args.which == "bilin":
        raise ValueError(oracle_scope)
    obj = _load_json(args.point)
    if args.which == "quot":
        mod = framed_from_json(obj)
        if args.oracle and mod.n != 1:
            raise ValueError(oracle_scope)
        rep = quot_tangent(mod, check=args.check)
        basis = [{"Xdot": [matrix_to_json(m) for m in tv.xdot],
                  "Gdot": matrix_to_json(tv.gdot)} for tv in rep.basis]
        payload = {"dim": rep.dim, "nullity": rep.nullity, "gauge": rep.gauge_dim,
                   "basis": basis}
        if args.oracle:
            payload["hom_oracle_dim"] = hom_KM_univariate(mod).dim
    else:
        point = bilin_from_json(obj)
        rep = bilin_tangent(point, check=args.check)
        basis = [{"Xdot": [matrix_to_json(m) for m in tv.xdot],
                  "Gdot": matrix_to_json(tv.gdot),
                  "Ydot": [matrix_to_json(m) for m in tv.ydot],
                  "Hdot": matrix_to_json(tv.hdot),
                  "Zdot": [matrix_to_json(m) for m in tv.zdot],
                  "Pihatdot": matrix_to_json(tv.pihatdot)} for tv in rep.basis]
        payload = {"dim": rep.dim, "nullity": rep.nullity, "gauge": rep.gauge_dim,
                   "basis": basis}
    _emit(args, payload)
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    m1 = framed_from_json(_load_json(args.m1))
    m2 = framed_from_json(_load_json(args.m2))
    m3 = framed_from_json(_load_json(args.m3))
    rep = factor_membership_detail(m1, m2, m3)
    payload = {"found": rep.found, "solution_dim": rep.solution_dim,
               "reason": rep.reason}
    if rep.point is not None:
        payload["point"] = bilin_to_json(rep.point)
    _emit(args, payload)
    return EXIT_OK if rep.found else EXIT_INVALID


def _cmd_dims(args: argparse.Namespace) -> int:
    cell_flags = [f"--{f}" for f in ("n", "d", "r", "r1", "r2") if getattr(args, f) is not None]
    if args.grid and cell_flags:
        raise ValueError(f"dims takes --grid or single-cell flags, not both: {' '.join(cell_flags)}")
    if args.grid:
        ranges = _parse_grid(args.grid)
        ns = ranges.get("n", [1])
        ds = ranges.get("d", [2])
        r1s = ranges.get("r1", ranges.get("r", [2]))
        r2s = ranges.get("r2", ranges.get("r", [2]))
        cells = [(n, d, r1, r2) for n in ns for d in ds for r1 in r1s for r2 in r2s
                 if r1 >= d and r2 >= d]

        rows = []
        for n, d, r1, r2 in cells:
            rep = bilin_dims(n, d, r1, r2)
            rows.append((n, d, r1, r2, rep.main_dim, rep.degenerate_dim,
                         rep.reducible_by_count, rep.reducible_by_secant, rep.irreducible))
        rows.sort()
        header = ("n", "d", "r1", "r2", "main_dim", "degenerate_dim",
                  "reducible_by_count", "reducible_by_secant", "irreducible")
        payload = {"cells": [dict(zip(header, row)) for row in rows]}
        _emit(args, payload, csv_rows=rows, csv_header=header)
        return EXIT_OK
    if args.n is None or args.d is None:
        raise ValueError("dims needs --grid, or --n and --d")
    if args.r is not None and (args.r1 is not None or args.r2 is not None):
        raise ValueError("dims takes --r, or --r1 and --r2, not both")
    if args.r is not None:
        rep = quot_dims(args.n, args.d, args.r)
        payload = {"kind": "quot", "principal_dim": rep.principal_dim,
                   "degenerate_dim": rep.degenerate_dim,
                   "reducible_by_count": rep.reducible_by_count}
    elif args.r1 is not None and args.r2 is not None:
        payload = {"kind": "bilin", **_bilin_payload(args.n, args.d, args.r1, args.r2)}
    else:
        raise ValueError("dims needs --r, or --r1 and --r2")
    _emit(args, payload)
    return EXIT_OK


def _cmd_reducibility(args: argparse.Namespace) -> int:
    _emit(args, _bilin_payload(args.n, args.d, args.r1, args.r2))
    return EXIT_OK


def _cmd_secant_dim(args: argparse.Namespace) -> int:
    rep = secant_dimension(args.d, args.r, trials=args.trials, seed=args.seed,
                           field=parse_field(args.field), cap=args.cap)
    payload = {"d": rep.d, "r": rep.r, "ambient": rep.ambient, "bound": rep.bound,
               "terracini_dim": rep.terracini_dim, "fills": rep.fills_ambient,
               "per_trial": rep.per_trial, "seed": args.seed}
    _emit(args, payload)
    return EXIT_OK


def _check_field_flag(args: argparse.Namespace, field, source: str) -> None:
    """--field is optional where the input fixes the field; given, it must
    name that field."""
    if args.field is not None and parse_field(args.field) != field:
        raise ValueError(f"--field {args.field} differs from {source}'s field {field.name}")


def _named_or_file_tensor(args: argparse.Namespace, field=None):
    """The --name tensor over ``field``, which --field may only repeat (no
    ``field``: over --field, default Q), or the --tensor file's tensor over
    the file's field."""
    if args.tensor is None:
        if field is None:
            return named_tensor(args.name, parse_field(args.field or "Q"))
        _check_field_flag(args, field, "--q")
        return named_tensor(args.name, field)
    tensor = tensor_from_json(_load_json(args.tensor))
    _check_field_flag(args, tensor.field, "the tensor file")
    return tensor


def _cmd_classify222(args: argparse.Namespace) -> int:
    if args.enumerate:
        q = 2 if args.q is None else args.q
        _check_field_flag(args, GF(q), "the census")
        census = enumerate_222(q, cap=_FLAGS["cap"]["default"] if args.cap is None else args.cap)
        rows = census.rows()
        payload = {
            "q": census.q,
            "total_points": census.total_points,
            "quot_classes": census.quot_classes,
            "border_rank_3": census.border_rank_3,
            "forced_failures": census.forced_failures,
            "counts": [{"label": l, "tensor_class": t, "count": c} for l, t, c in rows],
        }
        _emit(args, payload, csv_rows=rows,
              csv_header=("label", "tensor_class", "count"))
        return EXIT_OK
    census_flags = [f"--{f}" for f in ("q", "cap") if getattr(args, f) is not None]
    if census_flags:
        raise ValueError(f"{' '.join(census_flags)} apply to classify222 --enumerate only")
    tensor = _named_or_file_tensor(args)
    cls = classify_2x2x2(tensor, check=args.check)
    payload = {
        "rank": cls.rank,
        "border_rank": cls.border_rank,
        "concise": list(cls.concise),
        "label": cls.label,
        "pencil_separable": cls.pencil_separable,
        "pencil_split": cls.pencil_split,
        "tensor": tensor_to_json(tensor),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_limits(args: argparse.Namespace) -> int:
    field = parse_field(args.field)
    family = named_tensor(args.name, field)
    target = named_tensor(limit_target_name(args.name), field)
    samples = [field.parse(s) for s in args.samples.split(",")]
    rep = verify_limit(family, target, samples)
    payload = {
        "family": args.name,
        "target": limit_target_name(args.name),
        "base_matches": rep.base_matches,
        "samples": [{"t": field.fmt(s.t), "rank": s.classification.rank,
                     "border_rank": s.classification.border_rank,
                     "concise": list(s.classification.concise),
                     "label": s.classification.label} for s in rep.samples],
    }
    _emit(args, payload)
    return EXIT_OK if rep.base_matches else EXIT_INVALID


def _cmd_grcount(args: argparse.Namespace) -> int:
    rep = degenerate_grassmannian_check(args.d, args.r, args.q, cap=args.cap)
    payload = {"d": rep.d, "r": rep.r, "q": rep.q,
               "enumerated": rep.enumerated, "formula": rep.formula,
               "match": rep.ok}
    _emit(args, payload)
    return EXIT_OK if rep.ok else EXIT_INVALID


def _cmd_bruteforce_rank(args: argparse.Namespace) -> int:
    tensor = _named_or_file_tensor(args, GF(args.q))
    rank = brute_force_rank_fq(tensor, args.q, args.rmax, cap=args.cap)
    payload = {"q": args.q, "rank": rank,
               "exceeds_rmax": rank is None,
               "tensor": tensor_to_json(tensor)}
    _emit(args, payload)
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Run the handler of a parsed command line; returns the exit code."""
    try:
        return args.handler(args)
    except InfeasibleEnumeration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvalidPoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


# The flags beyond --out, each declared only on the subcommands that read it.
_FLAGS = {
    "field": dict(default="Q", help="computation field: Q or F:<p>"),
    "seed": dict(type=int, default=0, help="random seed"),
    "cap": dict(type=int, default=2_000_000,
                help="enumeration size cap (secant-dim: entries of all trials' rows)"),
    "check": dict(action="store_true", help="run debug consistency assertions"),
}


def _subcommand(sub, name: str, handler, summary: str, *flags: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=handler)
    p.add_argument("--out", default=None, help="write JSON here (CSV alongside for tables)")
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and never changes it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="quotbilin",
        description="Exact computations on framed-module and pairing moduli points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "validate", _cmd_validate,
                    "validate a framed module or pairing point file")
    p.add_argument("--point", required=True)

    p = _subcommand(sub, "tangent", _cmd_tangent, "tangent space report at a point", "check")
    p.add_argument("which", choices=["quot", "bilin"])
    p.add_argument("--point", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the univariate Hom oracle (quot at n = 1 only)")

    p = _subcommand(sub, "member", _cmd_member, "solve the pairing factorization problem")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--m3", required=True)

    p = _subcommand(sub, "dims", _cmd_dims, "dimension formulas, single cell or grid")
    p.add_argument("--grid", default=None, help="e.g. 'n=1..2 d=2..3 r=2..4'")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int, help="single framing rank: report the quot formulas")
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", type=int)

    p = _subcommand(sub, "reducibility", _cmd_reducibility,
                    "reducibility predicates for given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)

    p = _subcommand(sub, "secant-dim", _cmd_secant_dim,
                    "Terracini secant dimension of the triple Segre", "field", "seed", "cap")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=5,
                   help="at most this many random trials; they stop at the first that "
                        "reaches the bound, and per_trial lists the trials run")

    p = _subcommand(sub, "classify222", _cmd_classify222,
                    "classify a 2x2x2 tensor or run the census", "field", "cap", "check")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tensor", help="tensor JSON file")
    mode.add_argument("--name", help="named tensor (mu1..mu4, pi5_sample)")
    mode.add_argument("--enumerate", action="store_true")
    p.add_argument("--q", type=int, help="census field F_q (default 2)")
    # --field: Q for --name; --tensor and --enumerate fix their own.  --q and
    # --cap apply to --enumerate only, so their defaults are set there.
    p.set_defaults(field=None, cap=None)

    p = _subcommand(sub, "limits", _cmd_limits, "verify a named degeneration family", "field")
    p.add_argument("--name", required=True, help="mu2_t, mu3_t or mu4_t")
    p.add_argument("--samples", default="1,2,3")

    p = _subcommand(sub, "grcount", _cmd_grcount,
                    "degenerate locus count vs Gaussian binomial", "cap")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = _subcommand(sub, "bruteforce-rank", _cmd_bruteforce_rank,
                    "exact tensor rank over F_q by search", "field", "cap")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tensor")
    mode.add_argument("--name")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rmax", type=int, default=4)
    p.set_defaults(field=None)  # F_q for --name; --tensor fixes its own

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_MALFORMED if exc.code else EXIT_OK
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
