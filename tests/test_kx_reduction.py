"""The k[x] solve and its coefficient layout against a reference loop.

``express_in_span`` lays out x^b * column through one helper and solves a
batch of targets in one elimination per degree bound.  The reference below is
the hand-built single-target layout it replaced.  Column sets are plain lists
of lists of ``UniPoly``.
"""

from fractions import Fraction
import random

from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin.exactalg import (
    GF,
    QQ,
    Matrix,
    UniPoly,
    express_in_span,
    solve,
)
from quotbilin.modcore import rand_framed_module
from quotbilin.quot import kernel_presentation

FIELDS = [QQ, GF(3), GF(5)]


# -- references --------------------------------------------------------------

def reference_express(gens, height, target, f):
    maxdeg = max((e.degree for col in gens for e in col), default=0)
    tdeg = max((e.degree for e in target), default=0)
    bound = tdeg + maxdeg + 2
    for _ in range(3):
        ncoef = bound + 1
        nvars = len(gens) * ncoef
        rows = []
        rhs = []
        outdeg = bound + maxdeg
        for i in range(height):
            for e in range(outdeg + 1):
                row = [f.zero()] * nvars
                for j, col in enumerate(gens):
                    pij = col[i]
                    for bdeg in range(ncoef):
                        a = e - bdeg
                        cval = pij.coeff(a) if 0 <= a <= pij.degree else f.zero()
                        if not f.is_zero(cval):
                            row[j * ncoef + bdeg] = cval
                tgt = target[i]
                rows.append(row)
                rhs.append(tgt.coeff(e) if e <= tgt.degree else f.zero())
        sol = solve(Matrix.from_rows(f, rows), Matrix.column(f, rhs))
        if sol is not None:
            return [UniPoly(f, [sol.entries[j * ncoef + k] for k in range(ncoef)])
                    for j in range(len(gens))]
        bound += 4
    return None


# -- inputs ------------------------------------------------------------------

def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))
    # unreduced representatives too, such as 7 in GF(5)
    return st.integers(-2 * field.p, 2 * field.p)


def polys(field, max_degree):
    return st.lists(scalars(field), max_size=max_degree + 1).map(
        lambda cs: UniPoly(field, cs))


@st.composite
def column_sets(draw, max_height=3, max_cols=4):
    """(field, height, columns): columns are fresh, zero, repeated, or
    k[x]-combinations of earlier ones, so many sets are dependent."""
    field = draw(st.sampled_from(FIELDS))
    height = draw(st.integers(0, max_height))
    cols = []
    for _ in range(draw(st.integers(0, max_cols))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            cols.append([UniPoly.zero(field)] * height)
        elif kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == "combination" and len(cols) >= 2:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(polys(field, 1)), draw(polys(field, 1))
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append([draw(polys(field, 2)) for _ in range(height)])
    return field, height, cols


def raw(cols):
    return [[e.coeffs for e in col] for col in cols]


# -- tests -------------------------------------------------------------------

@settings(deadline=None, max_examples=150)
@given(column_sets(max_cols=3), st.data())
def test_express_in_span_matches_reference(case, data):
    field, height, cols = case
    if data.draw(st.booleans()) and cols:
        mults = [data.draw(polys(field, 1)) for _ in cols]
        target = [sum((m * col[i] for m, col in zip(mults, cols)), UniPoly.zero(field))
                  for i in range(height)]
    else:
        target = [data.draw(polys(field, 2)) for _ in range(height)]
    got = express_in_span(cols, height, [target], field)
    if all(e.is_zero() for e in target) and all(e.is_zero() for c in cols for e in c):
        # The reference lays out no coefficient at all here (its degree bounds
        # come out negative, or there are no rows) and cannot read back a
        # solution; the zero combination is the answer.
        assert got is not None and all(c.is_zero() for c in got[0])
        return
    want = reference_express(cols, height, target, field)
    assert (got is None) == (want is None)
    if got is not None:
        assert raw(got) == raw([want])


def test_express_in_span_searches_to_cramers_bound_on_square_columns():
    # (1, 0, 0) = 1*(1, x^11, 0) - x^11*(0, 1, x^11) + x^22*(0, 0, 1): degree 22
    # is past tdeg + maxdeg + 10 = 21 but within Cramer's tdeg + 2*maxdeg.
    f = QQ
    one, zero = UniPoly.const(f, f.one()), UniPoly.zero(f)
    x11 = UniPoly(f, [f.zero()] * 11 + [f.one()])
    cols = [[one, x11, zero], [zero, one, x11], [zero, zero, one]]
    assert express_in_span(cols, 3, [[one, zero, zero]], f) == [[one, -x11, x11 * x11]]
    # Independent square columns: None is a proof of non-membership.
    x = UniPoly.x(f)
    assert express_in_span([[x, zero], [zero, one]], 2, [[one, zero]], f) is None


# -- batched targets -----------------------------------------------------------

@st.composite
def hermite_columns(draw):
    """(field, height, columns): r lower triangular k[x]-independent columns
    with monic pivots and entries below each pivot of lower degree, either
    drawn directly or the kernel presentation of a random framed module."""
    field = draw(st.sampled_from([GF(3), GF(101), QQ]))
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        module = rand_framed_module(rng, field, 1, draw(st.integers(0, 4)), r)
        return field, r, kernel_presentation(module).cols
    pivots = [UniPoly(field, [*draw(st.lists(scalars(field), max_size=3)), field.one()])
              for _ in range(r)]
    cols = []
    for j in range(r):
        col = [UniPoly.zero(field)] * j + [pivots[j]]
        col += [draw(polys(field, 3)) % pivots[i] for i in range(j + 1, r)]
        cols.append(col)
    return field, r, cols


def batch_targets(data, field, height, cols):
    """Zero to four targets: k[x]-combinations of the columns or free vectors."""
    targets = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()) and cols:
            mults = [data.draw(polys(field, 2)) for _ in cols]
            targets.append([sum((m * col[i] for m, col in zip(mults, cols)), UniPoly.zero(field))
                            for i in range(height)])
        else:
            targets.append([data.draw(polys(field, 3)) for _ in range(height)])
    return targets


def check_batch(field, height, cols, targets):
    """Properties that hold for any columns; returns (batched, one at a time)."""
    got = express_in_span(cols, height, targets, field)
    singles = [express_in_span(cols, height, [t], field) for t in targets]
    if got is None:
        assert any(s is None for s in singles)
    else:
        assert len(got) == len(targets)
        for coeffs, target in zip(got, targets):
            assert len(coeffs) == len(cols)
            for i in range(height):
                combo = sum((c * col[i] for c, col in zip(coeffs, cols)), UniPoly.zero(field))
                assert combo == target[i]
    return got, singles


@settings(deadline=None, max_examples=120)
@given(column_sets(max_cols=3), st.data())
def test_batched_express_in_span_reproduces_its_targets(case, data):
    field, height, cols = case
    check_batch(field, height, cols, batch_targets(data, field, height, cols))


@settings(deadline=None, max_examples=120)
@given(hermite_columns(), st.data())
def test_batched_express_in_span_matches_one_at_a_time_on_hermite_columns(case, data):
    field, height, cols = case
    got, singles = check_batch(field, height, cols, batch_targets(data, field, height, cols))
    # Independent columns: each solution is unique, so the batch is all the
    # single answers when they all exist and None otherwise.
    if got is None:
        return
    assert all(s is not None for s in singles)
    assert raw(got) == raw([s[0] for s in singles])
