"""The benchmark's workloads: seeded inputs, task lists and answer checks.

Every task has a closed-form answer or one recorded at the seed commit, so a
change that speeds a task up but alters its answer is caught under any seed.
Tasks call the library through module attributes (``quot.hom_KM_univariate``)
so the traced run's wrappers, installed after set-up, are the ones called.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from quotbilin import bilin, cases222, cli, quot
from quotbilin.bilin import bilin_dims, bilin_to_json, degenerate_point, main_component_point
from quotbilin.exactalg import GF, QQ, Matrix, rand_invertible, rand_matrix
from quotbilin.modcore import framed_to_json, rand_framed_module

WORKLOADS = ("tangent-q", "oracle-fp", "census-f3")

# Tangent dimension of the fixed degenerate d = 3 point over Q (below),
# recorded at the seed commit; the formula gives only the lower bound 18.
DEGENERATE_D3_TANGENT_DIM = 21
# Tangent dimension of the degenerate d = 2 point of acceptance criterion 3
# over F_101, recorded at the seed commit.
DEGENERATE_D2_TANGENT_DIM = 7
# The q = 3 census as recorded at the seed commit: 117 = 3^4 + 3^3 + 3^2
# quot classes, 2154 points, no border-rank-3 tensor, no forced failure.
CENSUS_Q3 = {
    "quot_classes": 117,
    "total_points": 2154,
    "border_rank_3": 0,
    "forced_failures": 0,
    "counts": {
        "CYCLIC_NILPOTENT/W-type": 432,
        "MAIN_SPLIT/generic": 768,
        "MIXED_12/non-concise-pair": 36,
        "MIXED_21/non-concise-pair": 36,
        "NON_SPLIT/generic": 300,
        "SPLIT_MIXED_12/non-concise-pair": 96,
        "SPLIT_MIXED_21/non-concise-pair": 96,
        "TOTALLY_DEGENERATE/W-type": 96,
        "TOTALLY_DEGENERATE/generic": 270,
        "TOTALLY_DEGENERATE/non-concise-pair": 24,
    },
}


class CliExit(RuntimeError):
    """The CLI returned a nonzero exit code."""


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    expected: Any


@dataclass
class Workload:
    tasks: list[Task]
    largest: str  # name of the task reported as largest_task_s


def setup(name: str, seed: int, workdir: str) -> Workload:
    """Build a workload's inputs from the seed; point files go to ``workdir``."""
    if name == "tangent-q":
        return _tangent_q(random.Random(seed), seed, workdir)
    if name == "oracle-fp":
        return _oracle_fp(random.Random(seed))
    if name == "census-f3":
        return _census_f3(workdir)
    raise ValueError(f"unknown workload {name!r}")


def _cli_task(name: str, argv: list[str], out_path: str, answer, expected) -> Task:
    def run():
        code = cli.main(argv + ["--out", out_path])
        if code != 0:
            raise CliExit(f"quotbilin {' '.join(argv)} exited with {code}")
        with open(out_path) as fh:
            return answer(json.load(fh))
    return Task(name, run, expected)


def _write_json(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _tangent_q(rng: random.Random, seed: int, workdir: str) -> Workload:
    """Deformation-side tangent spaces and Terracini ranks over Q, via the CLI."""
    out = os.path.join(workdir, "report.json")
    tasks = []

    def dim(report):
        return report["dim"]

    for d in (4, 3, 2):
        points = [QQ.from_int(v) for v in rng.sample(range(-9, 10), d)]
        point = main_component_point(points, rand_invertible(rng, QQ, d),
                                     rand_invertible(rng, QQ, d))
        path = _write_json(workdir, f"bilin-main-d{d}.json", bilin_to_json(point))
        tasks.append(_cli_task(f"bilin_tangent.main.d{d}", ["tangent", "bilin", "--point", path],
                               out, dim, bilin_dims(1, d, d, d).main_dim))
    pi = Matrix(QQ, 3, 9, [QQ.one() if j == 4 * i else QQ.zero()
                           for i in range(3) for j in range(9)])
    degen = degenerate_point(3, 3, 3, Matrix.identity(QQ, 3), Matrix.identity(QQ, 3), pi)
    path = _write_json(workdir, "bilin-degenerate-d3.json", bilin_to_json(degen))
    tasks.append(_cli_task("bilin_tangent.degenerate.d3", ["tangent", "bilin", "--point", path],
                           out, dim, DEGENERATE_D3_TANGENT_DIM))
    for d in (5, 4, 3):
        module = rand_framed_module(rng, QQ, 1, d, 2)
        path = _write_json(workdir, f"quot-d{d}.json", framed_to_json(module))
        tasks.append(_cli_task(f"quot_tangent.d{d}", ["tangent", "quot", "--point", path],
                               out, dim, d * 2))

    def secant(report):
        return report["terracini_dim"], report["bound"]

    for d, r, bound in ((4, 4, 39), (3, 5, 26)):
        tasks.append(_cli_task(f"secant_dimension.d{d}.r{r}",
                               ["secant-dim", "--d", str(d), "--r", str(r), "--seed", str(seed)],
                               out, secant, (bound, bound)))
    return Workload(tasks, largest="bilin_tangent.main.d4")


def _generating_framing(rng: random.Random, field, d: int, r: int) -> Matrix:
    """Random d x r framing with no zero row: it generates at distinct points."""
    while True:
        g = rand_matrix(rng, field, d, r)
        if all(any(x for x in g.row(i)) for i in range(d)):
            return g


def _oracle_fp(rng: random.Random) -> Workload:
    """Univariate Hom oracles over F_101: Hom(K, M) and homomorphism triples.

    Set-up includes the deformation-side tangent bases the triples come from.
    """
    f = GF(101)
    tasks = []

    def triple_task(name, point, expected_dim):
        basis = bilin.bilin_tangent(point).basis

        def run():
            checks = [bilin.hom_triple_check(point, bilin.extract_hom_triple(point, tv))
                      for tv in basis]
            return len(checks), all(checks)
        return Task(name, run, (expected_dim, True))

    for d in (4, 3):
        points = [f.from_int(v) for v in rng.sample(range(101), d)]
        point = main_component_point(points, _generating_framing(rng, f, d, 2),
                                     _generating_framing(rng, f, d, 2))
        tasks.append(triple_task(f"hom_triple_check.main.d{d}", point,
                                 bilin_dims(1, d, 2, 2).main_dim))
    degen = degenerate_point(2, 2, 2, Matrix.identity(f, 2), Matrix.identity(f, 2),
                             Matrix.from_int_rows(f, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    tasks.append(triple_task("hom_triple_check.degenerate.d2", degen,
                             DEGENERATE_D2_TANGENT_DIM))
    for d in (12, 10, 8, 6):
        for r in (2, 3):
            module = rand_framed_module(rng, f, 1, d, r)
            tasks.append(Task(f"hom_KM_univariate.d{d}.r{r}",
                              lambda m=module: quot.hom_KM_univariate(m).dim, d * r))
    return Workload(tasks, largest="hom_triple_check.main.d4")


def census_summary(report: dict) -> dict:
    """The checked part of a ``classify222 --enumerate`` JSON report."""
    return {
        "quot_classes": report["quot_classes"],
        "total_points": report["total_points"],
        "border_rank_3": report["border_rank_3"],
        "forced_failures": report["forced_failures"],
        "counts": {f"{row['label']}/{row['tensor_class']}": row["count"]
                   for row in report["counts"]},
    }


def _census_f3(workdir: str) -> Workload:
    """The exhaustive two-points census; it has no random input."""
    out = os.path.join(workdir, "census.json")

    def census_q2():
        census = cases222.enumerate_222(2)
        return census.quot_classes, census.total_points

    tasks = [
        _cli_task("classify222.enumerate.q3", ["classify222", "--enumerate", "--q", "3"],
                  out, census_summary, CENSUS_Q3),
        Task("enumerate_222.q2", census_q2, (28, 308)),
        Task("census_cross_check.q2", lambda: cases222.census_cross_check(2), True),
    ]
    return Workload(tasks, largest="classify222.enumerate.q3")
