"""Span recorder and instrumentation for the traced benchmark run.

The traced run wraps the public functions and methods of the quotbilin
modules from outside the package: nothing under ``src/`` knows about it.
Each wrapped call records one span (name, start, end, parent, task id) in
memory; spans are written out once, when the run ends.  Field arithmetic is
counted, not spanned: it runs once per matrix entry, and a span per call
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from typing import Callable

# Modules whose public functions and methods are wrapped, one layer each.
# The field module is not among them: field values are element-level, and
# its arithmetic is counted instead (see FIELD_OPS).
LAYER_MODULES = (
    "quotbilin.exactalg.matrix",
    "quotbilin.exactalg.unipoly",
    "quotbilin.exactalg.param",
    "quotbilin.exactalg.count",
    "quotbilin.exactalg.sampling",
    "quotbilin.modcore",
    "quotbilin.quot",
    "quotbilin.bilin",
    "quotbilin.tensorlab",
    "quotbilin.cases222",
    "quotbilin.cli",
)

# Element-level classes and methods: called once per entry or per field
# value, or thin aliases (Matrix.rank is len(rref pivots)), so they are left
# unwrapped and their time lands in the caller's self time.
ELEMENT_CLASSES = {"UniPoly"}
ELEMENT_METHODS = {
    "Matrix": {"from_rows", "from_int_rows", "zeros", "identity", "diag", "column",
               "row", "col", "row_lists", "key", "is_zero", "scale", "transpose",
               "hstack", "vstack", "matvec", "rank"},
    "UniPolyMatrix": {"col", "columns", "from_columns", "from_scalar_matrix", "zeros",
                      "is_zero", "max_degree"},
    "Tensor3": {"index", "get", "key", "is_zero", "zeros", "from_entries"},
    "LinearSystem": {"new_row", "add_to_row", "matrix"},
    "FramedModule": {"key"},
}
# Dunder methods that are real layer operations (matrix products).
SPANNED_DUNDERS = {"__mul__"}
FIELD_MODULE = "quotbilin.exactalg.field"
FIELD_CLASSES = ("Field", "RationalField", "PrimeField")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")
COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("task", "i"))


class SpanRecorder:
    """Spans kept in parallel arrays: name id, start, end, parent, task id.

    ``parent`` is the index of the enclosing open span (-1 at top level) and
    ``task`` the task id current when the span opened.  ``counts`` holds the
    counters recorded at the same boundaries (field operations, rref cells)
    and ``distinct`` the sets behind per-object ratios.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.open_stack: list[int] = []
        self.task_id = -1
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.open_stack[-1] if self.open_stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self.open_stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        if self.open_stack.pop() != i:
            raise RuntimeError("span closed out of order")

    def __len__(self) -> int:
        return len(self.name)

    def span_name(self, i: int) -> str:
        return self.names[self.name[i]]

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover.

        Children of one span run one after another inside it (one thread),
        so the time they cover is the sum of their durations.
        """
        dur = array("d", [e - s for s, e in zip(self.start, self.end)])
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def nesting_errors(self) -> list[str]:
        """The first few spans that are open, end before they start, leave
        their parent's interval, or overlap the previous child of the same
        parent."""
        errors = []
        if self.open_stack:
            errors.append(f"{len(self.open_stack)} spans still open")
        last_child_end: dict[int, float] = {}
        for i in range(len(self)):
            s, e, p = self.start[i], self.end[i], self.parent[i]
            problem = None
            if e < s:
                problem = "ends before it starts"
            elif p >= i:
                problem = "parent recorded after child"
            elif p >= 0 and not (self.start[p] <= s and e <= self.end[p]):
                problem = "outside its parent"
            elif s < last_child_end.get(p, float("-inf")):
                problem = "overlaps a sibling"
            last_child_end[p] = e
            if problem:
                errors.append(f"span {i} ({self.span_name(i)}): {problem}")
                if len(errors) >= 5:
                    break
        return errors

    def write(self, path: str) -> None:
        """Gzip file: one JSON header line (names, counts, span count), then
        the raw name, start, end, parent and task arrays in that order."""
        header = {"names": self.names, "counts": self.counts, "spans": len(self),
                  "columns": [c for c, _ in COLUMNS]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column, _ in COLUMNS:
                fh.write(getattr(self, column).tobytes())

    @classmethod
    def read(cls, path: str) -> "SpanRecorder":
        rec = cls()
        with gzip.open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for column, code in COLUMNS:
                col = array(code)
                col.frombytes(fh.read(header["spans"] * col.itemsize))
                setattr(rec, column, col)
        for name in header["names"]:
            rec.name_id(name)
        rec.counts = header["counts"]
        return rec


def _span_wrapper(fn, rec: SpanRecorder, name: str, probe=None):
    nid = rec.name_id(name)
    begin, finish = rec.begin, rec.finish
    if probe is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            probe(rec, args, result)
            return result
    return wrapper


def _count_wrapper(fn, counts: list):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[0] += 1
        return fn(*args)
    return wrapper


def _rref_probe(rec: SpanRecorder, args, result) -> None:
    m = args[0]
    cells = m.rows * m.cols
    c = rec.counts
    c["rref.cells"] = c.get("rref.cells", 0) + cells
    c["rref.max_cells"] = max(c.get("rref.max_cells", 0), cells)


def _membership_probe(rec: SpanRecorder, args, result) -> None:
    if result.found:
        rec.counts["membership.found"] = rec.counts.get("membership.found", 0) + 1


def _validate_bilin_probe(rec: SpanRecorder, args, result) -> None:
    rec.distinct.setdefault("validate_bilin.points", set()).add(hash(args[0]))


PROBES = {
    "exactalg.matrix.Matrix.rref": _rref_probe,
    "bilin.factor_membership_detail": _membership_probe,
    "bilin.validate_bilin": _validate_bilin_probe,
}


def instrument(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer function and method; returns the function that undoes it.

    A function imported by name into another module (``from .exactalg import
    solve``) is a separate binding there, so each wrapped function is rebound
    in every loaded quotbilin module.  Methods are patched on the class that
    defines them.
    """
    undo: list[Callable[[], None]] = []
    rebind: dict[int, Callable] = {}
    field_count = [0]
    for cls_name in FIELD_CLASSES:
        cls = getattr(sys.modules[FIELD_MODULE], cls_name)
        for op in FIELD_OPS:
            if op in cls.__dict__:
                orig = cls.__dict__[op]
                setattr(cls, op, _count_wrapper(orig, field_count))
                undo.append(functools.partial(setattr, cls, op, orig))
    for modname in LAYER_MODULES:
        mod = sys.modules[modname]
        layer = modname.removeprefix("quotbilin.")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                rebind[id(obj)] = _span_wrapper(obj, rec, name, PROBES.get(name))
            elif inspect.isclass(obj) and attr not in ELEMENT_CLASSES:
                undo.extend(_instrument_class(obj, layer, rec))
    for mod in [m for n, m in sys.modules.items()
                if n == "quotbilin" or n.startswith("quotbilin.")]:
        for attr, obj in list(vars(mod).items()):
            wrapper = rebind.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                undo.append(functools.partial(setattr, mod, attr, obj))

    def restore() -> None:
        for u in reversed(undo):
            u()
        rec.counts["field_ops"] = field_count[0]

    return restore


def _instrument_class(cls, layer: str, rec: SpanRecorder):
    undo = []
    skip = ELEMENT_METHODS.get(cls.__name__, set())
    for attr, raw in list(vars(cls).items()):
        if attr in skip or (attr.startswith("_") and attr not in SPANNED_DUNDERS):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            fn, kind = raw.__func__, type(raw)
        elif inspect.isfunction(raw):
            fn, kind = raw, None
        else:
            continue  # properties and class attributes
        name = f"{layer}.{cls.__name__}.{attr}"
        wrapped = _span_wrapper(fn, rec, name, PROBES.get(name))
        setattr(cls, attr, kind(wrapped) if kind else wrapped)
        undo.append(functools.partial(setattr, cls, attr, raw))
    return undo


# -- per-layer metrics ---------------------------------------------------------

RREF = "exactalg.matrix.Matrix.rref"
MATMUL = {"exactalg.matrix.Matrix.__mul__", "exactalg.matrix.Matrix.kron"}
SOLVE = {"exactalg.matrix.solve", "exactalg.matrix.rank_and_kernel",
         "exactalg.matrix.LinearSystem.kernel_basis"}
UNIPOLY_PREFIX = "exactalg.unipoly."
# Spans whose rref descendants are counted.
RREF_OWNERS = ("modcore.krylov_span", "quot.quot_tangent", "bilin.bilin_tangent")
TRIPLE = "bilin.extract_hom_triple"
SELF_TIMED = (
    "modcore.tensor_over_S", "quot.quot_tangent", "quot.kernel_presentation",
    "quot.hom_KM_univariate", "bilin.bilin_tangent", "bilin.extract_hom_triple",
    "bilin.hom_triple_check", "tensorlab.secant_dimension", "tensorlab.classify_2x2x2",
    "cases222.enumerate_quot_classes_22", "cases222.classify_point_222",
    "cases222.census_cross_check",
)
CALL_COUNTED = (
    "modcore.validate_framed", "modcore.tensor_over_S", "quot.kernel_presentation",
    "tensorlab.classify_2x2x2",
)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer counts and self times of a finished traced run."""
    self_t = rec.self_times()
    n_calls = [0] * len(rec.names)
    n_self = [0.0] * len(rec.names)
    for nid, own in zip(rec.name, self_t):
        n_calls[nid] += 1
        n_self[nid] += own
    calls = dict(zip(rec.names, n_calls))
    selfs = dict(zip(rec.names, n_self))

    def group(pred):
        names = [n for n in calls if pred(n)]
        return sum(calls[n] for n in names), sum((selfs[n] for n in names), 0.0)

    # Flags of the watched spans above each span, propagated in recording
    # order (a parent is recorded before its children).
    watched = RREF_OWNERS + (TRIPLE,)
    bit = {rec.ids[n]: 1 << k for k, n in enumerate(watched) if n in rec.ids}
    triple_bit = 1 << len(RREF_OWNERS)
    flags = [0] * len(rec)
    rref_below = [0] * len(RREF_OWNERS)
    kp_in_triple = 0
    rref_id, kp_id = rec.ids.get(RREF), rec.ids.get("quot.kernel_presentation")
    for i, (nid, p) in enumerate(zip(rec.name, rec.parent)):
        above = flags[p] if p >= 0 else 0
        flags[i] = above | bit.get(nid, 0)
        if nid == rref_id:
            for k in range(len(RREF_OWNERS)):
                rref_below[k] += above >> k & 1
        elif nid == kp_id and above & triple_bit:
            kp_in_triple += 1

    out: dict[str, float] = {}
    c, s = group(lambda n: n == RREF)
    out["exactalg.rref.calls"], out["exactalg.rref.self_s"] = c, s
    out["exactalg.rref.cells"] = rec.counts.get("rref.cells", 0)
    out["exactalg.rref.max_cells"] = rec.counts.get("rref.max_cells", 0)
    out["exactalg.field_ops"] = rec.counts.get("field_ops", 0)
    out["exactalg.matmul.calls"], out["exactalg.matmul.self_s"] = group(MATMUL.__contains__)
    out["exactalg.unipoly.calls"], out["exactalg.unipoly.self_s"] = group(
        lambda n: n.startswith(UNIPOLY_PREFIX))
    out["exactalg.solve.calls"], out["exactalg.solve.self_s"] = group(SOLVE.__contains__)
    # The CLI layer's own work (argument parsing, JSON in and out) is the self
    # time of every cli span under main, since main delegates to cli.run.
    out["cli.main.self_s"] = group(lambda n: n.startswith("cli."))[1]
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name, count in zip(RREF_OWNERS, rref_below):
        out[f"{name}.rref_calls"] = count
    triples = calls.get(TRIPLE, 0)
    out["quot.kernel_presentation.calls_per_triple"] = kp_in_triple / triples if triples else 0.0
    points = len(rec.distinct.get("validate_bilin.points", ()))
    out["bilin.validate_bilin.calls_per_point"] = (
        calls.get("bilin.validate_bilin", 0) / points if points else 0.0)
    member = calls.get("bilin.factor_membership_detail", 0)
    out["bilin.factor_membership.calls"] = member
    out["bilin.factor_membership.found_ratio"] = (
        rec.counts.get("membership.found", 0) / member if member else 0.0)
    return out
