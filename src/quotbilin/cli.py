"""Command-line front end: validation, tangent reports, membership, dimension
grids, reducibility, secant dimensions, classification, limits, censuses.

Reports are JSON (CSV for flat tables); field elements are serialized as
strings.  Identical config and seed give identical output apart from the
timestamp field.  Exit codes: 0 success, 1 validation/membership failure,
2 infeasible enumeration cap, 3 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .exactalg import FieldError, InfeasibleEnumeration, matrix_to_json, parse_field
from .modcore import InvalidPoint, framed_from_json, validate_framed
from .quot import (
    NonSplitSupport,
    degenerate_grassmannian_check,
    hom_KM_univariate,
    quot_dims,
    quot_tangent,
)
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


@dataclass
class RunConfig:
    command: str
    field_spec: str = "Q"
    seed: int = 0
    out: Optional[str] = None
    cap: int = 2_000_000
    check: bool = False
    grid: Optional[str] = None
    args: dict = dc_field(default_factory=dict)


def _emit(config: RunConfig, payload: dict, csv_rows=None, csv_header=None) -> None:
    payload = dict(payload)
    payload["command"] = config.command
    payload["seed"] = config.seed
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, indent=2, sort_keys=True)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
        if csv_rows is not None:
            csv_path = config.out.rsplit(".", 1)[0] + ".csv"
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
        return json.load(fh)


def _parse_grid(spec: str) -> dict[str, list[int]]:
    """Parse grid ranges like ``n=1..2 d=2..3 r=2..4`` (space or comma
    separated); single values allowed."""
    out = {}
    for part in spec.replace(",", " ").split():
        key, _, rng = part.partition("=")
        if not rng:
            raise ValueError(f"bad grid component {part!r}")
        if ".." in rng:
            lo, hi = rng.split("..")
            out[key] = list(range(int(lo), int(hi) + 1))
        else:
            out[key] = [int(rng)]
    return out


# -- command handlers -----------------------------------------------------------

def _cmd_validate(config: RunConfig) -> int:
    obj = _load_json(config.args["point"])
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
    _emit(config, payload)
    return EXIT_OK if rep.ok else EXIT_INVALID


def _cmd_tangent(config: RunConfig) -> int:
    obj = _load_json(config.args["point"])
    which = config.args["which"]
    if which == "quot":
        mod = framed_from_json(obj)
        rep = quot_tangent(mod, check=config.check)
        basis = [{"Xdot": [matrix_to_json(m) for m in tv.xdot],
                  "Gdot": matrix_to_json(tv.gdot)} for tv in rep.basis]
        payload = {"dim": rep.dim, "nullity": rep.nullity, "gauge": rep.gauge_dim,
                   "basis": basis}
        if config.args.get("oracle") and mod.n == 1:
            payload["hom_oracle_dim"] = hom_KM_univariate(mod).dim
    else:
        point = bilin_from_json(obj)
        rep = bilin_tangent(point, check=config.check)
        basis = [{"Xdot": [matrix_to_json(m) for m in tv.xdot],
                  "Gdot": matrix_to_json(tv.gdot),
                  "Ydot": [matrix_to_json(m) for m in tv.ydot],
                  "Hdot": matrix_to_json(tv.hdot),
                  "Zdot": [matrix_to_json(m) for m in tv.zdot],
                  "Pihatdot": matrix_to_json(tv.pihatdot)} for tv in rep.basis]
        payload = {"dim": rep.dim, "nullity": rep.nullity, "gauge": rep.gauge_dim,
                   "basis": basis}
    _emit(config, payload)
    return EXIT_OK


def _cmd_member(config: RunConfig) -> int:
    m1 = framed_from_json(_load_json(config.args["m1"]))
    m2 = framed_from_json(_load_json(config.args["m2"]))
    m3 = framed_from_json(_load_json(config.args["m3"]))
    rep = factor_membership_detail(m1, m2, m3)
    payload = {"found": rep.found, "solution_dim": rep.solution_dim,
               "reason": rep.reason}
    if rep.point is not None:
        payload["point"] = bilin_to_json(rep.point)
    _emit(config, payload)
    return EXIT_OK if rep.found else EXIT_INVALID


def _cmd_dims(config: RunConfig) -> int:
    if config.grid:
        ranges = _parse_grid(config.grid)
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
        _emit(config, payload, csv_rows=rows, csv_header=header)
        return EXIT_OK
    n = int(config.args["n"])
    d = int(config.args["d"])
    if "r" in config.args and config.args["r"] is not None:
        rep = quot_dims(n, d, int(config.args["r"]))
        payload = {"kind": "quot", "principal_dim": rep.principal_dim,
                   "degenerate_dim": rep.degenerate_dim,
                   "reducible_by_count": rep.reducible_by_count}
    else:
        rep = bilin_dims(n, d, int(config.args["r1"]), int(config.args["r2"]))
        payload = {"kind": "bilin", "main_dim": rep.main_dim,
                   "degenerate_dim": rep.degenerate_dim,
                   "reducible_by_count": rep.reducible_by_count,
                   "reducible_by_secant": rep.reducible_by_secant,
                   "irreducible": rep.irreducible,
                   "reasons": rep.reasons}
    _emit(config, payload)
    return EXIT_OK


def _cmd_reducibility(config: RunConfig) -> int:
    rep = bilin_dims(int(config.args["n"]), int(config.args["d"]),
                     int(config.args["r1"]), int(config.args["r2"]))
    payload = {
        "main_dim": rep.main_dim,
        "degenerate_dim": rep.degenerate_dim,
        "reducible_by_count": rep.reducible_by_count,
        "reducible_by_secant": rep.reducible_by_secant,
        "irreducible": rep.irreducible,
        "reasons": rep.reasons,
    }
    _emit(config, payload)
    return EXIT_OK


def _cmd_secant_dim(config: RunConfig) -> int:
    field = parse_field(config.field_spec)
    rep = secant_dimension(int(config.args["d"]), int(config.args["r"]),
                           trials=int(config.args.get("trials", 5)),
                           seed=config.seed, field=field)
    payload = {"d": rep.d, "r": rep.r, "ambient": rep.ambient, "bound": rep.bound,
               "terracini_dim": rep.terracini_dim, "fills": rep.fills_ambient,
               "per_trial": rep.per_trial}
    _emit(config, payload)
    return EXIT_OK


def _cmd_classify222(config: RunConfig) -> int:
    field = parse_field(config.field_spec)
    if config.args.get("enumerate"):
        census = enumerate_222(int(config.args["q"]), cap=config.cap)
        rows = census.rows()
        payload = {
            "q": census.q,
            "total_points": census.total_points,
            "quot_classes": census.quot_classes,
            "border_rank_3": census.border_rank_3,
            "forced_failures": census.forced_failures,
            "counts": [{"label": l, "tensor_class": t, "count": c} for l, t, c in rows],
        }
        _emit(config, payload, csv_rows=rows,
              csv_header=("label", "tensor_class", "count"))
        return EXIT_OK
    if config.args.get("name"):
        tensor = named_tensor(config.args["name"], field)
    else:
        tensor = tensor_from_json(_load_json(config.args["tensor"]))
    cls = classify_2x2x2(tensor, check=config.check)
    payload = {
        "rank": cls.rank,
        "border_rank": cls.border_rank,
        "concise": list(cls.concise),
        "label": cls.label,
        "pencil_separable": cls.pencil_separable,
        "pencil_split": cls.pencil_split,
        "tensor": tensor_to_json(tensor),
    }
    _emit(config, payload)
    return EXIT_OK


def _cmd_limits(config: RunConfig) -> int:
    field = parse_field(config.field_spec)
    name = config.args["name"]
    family = named_tensor(name, field)
    target = named_tensor(limit_target_name(name), field)
    samples = [field.parse(s) for s in config.args.get("samples", "1,2,3").split(",")]
    rep = verify_limit(family, target, samples)
    payload = {
        "family": name,
        "target": limit_target_name(name),
        "base_matches": rep.base_matches,
        "samples": [{"t": field.fmt(s.t), "rank": s.classification.rank,
                     "border_rank": s.classification.border_rank,
                     "concise": list(s.classification.concise),
                     "label": s.classification.label} for s in rep.samples],
    }
    _emit(config, payload)
    return EXIT_OK if rep.base_matches else EXIT_INVALID


def _cmd_grcount(config: RunConfig) -> int:
    rep = degenerate_grassmannian_check(int(config.args["d"]), int(config.args["r"]),
                                        int(config.args["q"]), cap=config.cap)
    payload = {"d": rep.d, "r": rep.r, "q": rep.q,
               "enumerated": rep.enumerated, "formula": rep.formula,
               "match": rep.ok}
    _emit(config, payload)
    return EXIT_OK if rep.ok else EXIT_INVALID


def _cmd_bruteforce_rank(config: RunConfig) -> int:
    field = parse_field(config.field_spec)
    if config.args.get("name"):
        tensor = named_tensor(config.args["name"], field)
    else:
        tensor = tensor_from_json(_load_json(config.args["tensor"]))
    q = int(config.args["q"])
    rank = brute_force_rank_fq(tensor, q, int(config.args.get("rmax", 4)),
                               cap=config.cap)
    payload = {"q": q, "rank": rank,
               "exceeds_rmax": rank is None,
               "tensor": tensor_to_json(tensor)}
    _emit(config, payload)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "tangent": _cmd_tangent,
    "member": _cmd_member,
    "dims": _cmd_dims,
    "reducibility": _cmd_reducibility,
    "secant-dim": _cmd_secant_dim,
    "classify222": _cmd_classify222,
    "limits": _cmd_limits,
    "grcount": _cmd_grcount,
    "bruteforce-rank": _cmd_bruteforce_rank,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    handler = _HANDLERS[config.command]
    try:
        return handler(config)
    except InfeasibleEnumeration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvalidPoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FieldError, NonSplitSupport, FileNotFoundError, ValueError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--field", default="Q", help="computation field: Q or F:<p>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here (CSV alongside for tables)")
    p.add_argument("--cap", type=int, default=2_000_000, help="enumeration size cap")
    p.add_argument("--check", action="store_true", help="run debug consistency assertions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotbilin",
        description="Exact computations on framed-module and pairing moduli points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a framed module or pairing point file")
    p.add_argument("--point", required=True)
    _common_flags(p)

    p = sub.add_parser("tangent", help="tangent space report at a point")
    p.add_argument("which", choices=["quot", "bilin"])
    p.add_argument("--point", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the univariate Hom oracle (quot, n = 1)")
    _common_flags(p)

    p = sub.add_parser("member", help="solve the pairing factorization problem")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--m3", required=True)
    _common_flags(p)

    p = sub.add_parser("dims", help="dimension formulas, single cell or grid")
    p.add_argument("--grid", default=None, help="e.g. 'n=1..2 d=2..3 r=2..4'")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int, help="single framing rank: report the quot formulas")
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", type=int)
    _common_flags(p)

    p = sub.add_parser("reducibility", help="reducibility predicates for given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("secant-dim", help="Terracini secant dimension of the triple Segre")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=5,
                   help="at most this many random trials; they stop at the first that "
                        "reaches the bound, and per_trial lists the trials run")
    _common_flags(p)

    p = sub.add_parser("classify222", help="classify a 2x2x2 tensor or run the census")
    p.add_argument("--tensor", help="tensor JSON file")
    p.add_argument("--name", help="named tensor (mu1..mu4, pi5_sample)")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--q", type=int, default=2)
    _common_flags(p)

    p = sub.add_parser("limits", help="verify a named degeneration family")
    p.add_argument("--name", required=True, help="mu2_t, mu3_t or mu4_t")
    p.add_argument("--samples", default="1,2,3")
    _common_flags(p)

    p = sub.add_parser("grcount", help="degenerate locus count vs Gaussian binomial")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("bruteforce-rank", help="exact tensor rank over F_q by search")
    p.add_argument("--tensor")
    p.add_argument("--name")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rmax", type=int, default=4)
    _common_flags(p)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    args = {k: v for k, v in vars(ns).items()
            if k not in {"command", "field", "seed", "out", "cap", "check", "grid"}}
    return RunConfig(
        command=ns.command,
        field_spec=getattr(ns, "field", "Q"),
        seed=getattr(ns, "seed", 0),
        out=getattr(ns, "out", None),
        cap=getattr(ns, "cap", 2_000_000),
        check=getattr(ns, "check", False),
        grid=getattr(ns, "grid", None),
        args=args,
    )


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    return run(config_from_args(ns))


if __name__ == "__main__":
    sys.exit(main())
