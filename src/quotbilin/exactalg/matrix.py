"""Dense matrices over an exact field, with rank, kernel and solve.

Entries are raw field values stored row-major; the attached :class:`Field`
supplies the arithmetic.  Matrices are immutable by convention: no method
mutates ``entries`` after construction.  Everything reduces to exact
Gaussian elimination: reduced row echelon form for whole matrices, and the
incremental semi-echelon basis of :class:`EchelonBasis` for spans grown one
vector at a time.

Both run on plain ``int`` rows rather than one ``Field`` call per entry.
Whole-matrix elimination (``rref``, ``rank`` and everything built on them)
is one kernel, :func:`_eliminate`.  Over F_p the entries are reduced mod p
once, on entry, and the row operations are inlined modular arithmetic.  A
large F_p system that is not very sparse (see ``_PACKED_MIN_CELLS``) runs on
packed rows instead (:func:`_eliminate_packed`): each row is one ``int`` of
fixed-width slots, a row operation is one big-integer multiply-add, and
slots are reduced mod p only when read.  Both give the same rows and
pivots.  Over Q each row is scaled to a primitive integer row (denominators
cleared, content divided out); a row with entry c in the pivot column of a
pivot row with pivot a becomes ``(a/g)*row - (c/g)*pivot_row`` with ``g = gcd(a, c)``,
and is divided by its content again.  Rows with a zero in the pivot column
are not touched, and keeping every row primitive keeps the integers near the
size of the matrix's minors.  Textbook fraction-free (Bareiss) elimination
rescales every row at every step instead, which is slower on the sparse
tangent systems.  :class:`EchelonBasis` stores its rows the same way and
reduces a vector by the same row operations.  A Q value is an ``int`` when
it is integral and a ``Fraction`` otherwise (see :mod:`.field`), so a row of
an integral matrix is already an integer row and skips the denominator pass.
Only ``rref``, ``EchelonBasis.reduce`` and the kernel-vector builder of
:func:`kernel_mod_span` (which :func:`rank_and_kernel` also reads its basis
through) divide, each through :func:`.field.rational`, once per nonzero
entry of their result.
"""

from __future__ import annotations

from array import array
from math import gcd, lcm
from operator import mul
from sys import byteorder
from typing import Optional, Sequence

from .field import GF, QQ, Field, FieldError, parse_field, rational, same_field


# An F_p system runs on packed rows when it has more entries than
# _PACKED_MIN_CELLS and more nonzero entries than _PACKED_MIN_ROW_NONZEROS
# per row on average; see BENCH_secant.json for the measurements.  On dense
# random rows the packed path overtakes the list path at about 100 entries
# for p = 101, 150 for p = 2^31 - 1, 150-250 for p = 3 and 250-500 for
# p = 2; above 400 it was the faster one for every p measured, with and
# without ``reduced``.  Every system of the F_2 and F_3 censuses has at most
# 24 x 16 = 384 entries and stays on lists.  A sparse row costs the list
# path one lookup per column, and the packed path a shift of the whole row:
# on 16 x 28 to 128 x 128 systems the list path won at 1 to 2.7 nonzeros
# per row, and on the F_101 tangent and K3 systems of the Hom oracle up to
# 4.3; the packed path won on random rows at 5.5 and more, and on Terracini
# rows (d^2 nonzeros).
_PACKED_MIN_CELLS = 400
_PACKED_MIN_ROW_NONZEROS = 5

# The prime of the modular rank certificates over Q (Terracini ranks in
# ``tensorlab.secant_dimension``, gauge pivots in :func:`kernel_mod_span`):
# a rank mod P is at most the rank over Q, and a minor that is nonzero mod P
# is a nonzero integer.  P = 2^24 - 3 lies above the Q sampling window of
# ``tensorlab`` (so no sampled coordinate vanishes mod P), and its packed
# slot, 2*24 + bitlen(m) + 1 bits, fits one 64-bit word for every system
# with min(rows, cols) < 2^15.
CERTIFICATE_PRIME = 2 ** 24 - 3

# Over Q, a system with no rows whose gauge has at least this many vectors
# takes its right pivots modulo CERTIFICATE_PRIME first (kernel_mod_span).
# Measured on the Quot gauges at n = 1, r = 2, the empty systems that occur:
# the pivots mod P were the prefix at even d, so no exact elimination runs
# (quot_tangent 10 -> 3 ms at d = 8, 1.5 s -> 55 ms at d = 16).  At odd d they
# were not, and the exact elimination of the columns up to the last of them
# (d^2 + 1 of d^2 + 2d) saved more than the modular one cost (24 -> 21 ms at
# d = 9).  Below d = 8 either saves about a millisecond or less.
_MODULAR_GAUGE_MIN = 64


class ShapeError(ValueError):
    """Operand shapes do not match."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return cls(field, r, c, flat)

    @classmethod
    def from_int_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        return cls.from_rows(field, [[field.from_int(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.entries[i * n + i] = one
        return m

    @classmethod
    def diag(cls, field: Field, values: Sequence) -> "Matrix":
        n = len(values)
        m = cls.zeros(field, n, n)
        for i, v in enumerate(values):
            m.entries[i * n + i] = v
        return m

    @classmethod
    def column(cls, field: Field, values: Sequence) -> "Matrix":
        return cls(field, len(values), 1, list(values))

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return tuple(self.entries[i * self.cols: (i + 1) * self.cols])

    def col(self, j: int) -> tuple:
        return tuple(self.entries[j::self.cols])

    def row_lists(self) -> list[list]:
        c, e = self.cols, self.entries
        return [e[i * c:(i + 1) * c] for i in range(self.rows)]

    def key(self) -> tuple:
        """Hashable identity, usable as a dict key or for canonicalization."""
        return (self.field.name, self.rows, self.cols, tuple(self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols) or (
                f is not other.field and f != other.field):
            return False
        p = f.characteristic
        if p:
            return not any((a - b) % p for a, b in zip(self.entries, other.entries))
        return all(f.eq(a, b) for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        p = self.field.characteristic
        canon = (tuple([x % p for x in self.entries]) if p
                 else tuple(map(self.field.canonical, self.entries)))
        return hash((self.field.name, self.rows, self.cols, canon))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        p = self.field.characteristic
        if p:
            return not any(x % p for x in self.entries)
        return all(self.field.is_zero(x) for x in self.entries)

    # -- arithmetic ---------------------------------------------------------
    #
    # Over F_p the entry-wise operations, like the products, run on plain
    # ints with one ``% p`` per entry, so they return canonical residues
    # whatever the residues of their operands.

    def _same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        same_field(self.field, other.field)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        p = f.characteristic
        if p:
            out = [(a + b) % p for a, b in zip(self.entries, other.entries)]
        else:
            out = [f.add(a, b) for a, b in zip(self.entries, other.entries)]
        return Matrix(f, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        p = f.characteristic
        if p:
            out = [(a - b) % p for a, b in zip(self.entries, other.entries)]
        else:
            out = [f.sub(a, b) for a, b in zip(self.entries, other.entries)]
        return Matrix(f, self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        f = self.field
        p = f.characteristic
        out = [-a % p for a in self.entries] if p else [f.neg(a) for a in self.entries]
        return Matrix(f, self.rows, self.cols, out)

    def scale(self, c) -> "Matrix":
        f = self.field
        p = f.characteristic
        out = [c * a % p for a in self.entries] if p else [f.mul(c, a) for a in self.entries]
        return Matrix(f, self.rows, self.cols, out)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.  Over F_p each output entry is the plain ``int``
        dot product of a row and a column, reduced mod p once; over Q zero
        entries of ``self`` are skipped."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = same_field(self.field, other.field)
        n, m, k = self.rows, self.cols, other.cols
        se, oe = self.entries, other.entries
        p = f.characteristic
        if p:
            rows = [se[i * m:(i + 1) * m] for i in range(n)]
            cols = [oe[j::k] for j in range(k)]
            return Matrix(f, n, k, [sum(map(mul, row, col)) % p for row in rows for col in cols])
        out = [f.zero()] * (n * k)
        for i in range(n):
            base = i * m
            for s in range(m):
                a = se[base + s]
                if f.is_zero(a):
                    continue
                ob = s * k
                rb = i * k
                for j in range(k):
                    out[rb + j] = f.add(out[rb + j], f.mul(a, oe[ob + j]))
        return Matrix(f, n, k, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self.entries[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i,j] * other.

        One pass of plain products: ``a * b % p`` over F_p and ``a * b``
        over Q, where the block of a zero ``self[i,j]`` is left zero.
        """
        f = same_field(self.field, other.field)
        r1, c1, r2, c2 = self.rows, self.cols, other.rows, other.cols
        p = f.characteristic
        arows, orows = self.row_lists(), other.row_lists()
        if p:
            out = [a * b % p for arow in arows for orow in orows for a in arow for b in orow]
        else:
            out = [a * b if a else 0 for arow in arows for orow in orows for a in arow for b in orow]
        return Matrix(f, r1 * r2, c1 * c2, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeError("row count mismatch in hstack")
        same_field(self.field, other.field)
        ents = []
        for i in range(self.rows):
            ents.extend(self.row(i))
            ents.extend(other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, ents)

    def matvec(self, v: Sequence) -> list:
        """``self * v`` as a list: each output entry is the plain dot product
        of a row and ``v``, reduced mod p once over F_p."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        c, e = self.cols, self.entries
        rows = [e[i * c:(i + 1) * c] for i in range(self.rows)]
        p = self.field.characteristic
        if p:
            return [sum(map(mul, row, v)) % p for row in rows]
        return [sum(map(mul, row, v)) for row in rows]

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        f = self.field
        rows, pivots = _eliminate(f, self.row_lists(), self.cols, reduced=True)
        if f.characteristic:
            flat = [x for row in rows for x in row]
        else:
            flat = []
            for row, pc in zip(rows, pivots):
                pv = row[pc]
                flat.extend([rational(x, pv) if x else 0 for x in row])
            flat.extend([0] * ((self.rows - len(pivots)) * self.cols))
        return Matrix(f, self.rows, self.cols, flat), tuple(pivots)

    def rank(self) -> int:
        return len(_eliminate(self.field, self.row_lists(), self.cols, reduced=False)[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        aug = self.hstack(Matrix.identity(self.field, n))
        r, piv = aug.rref()
        if len(piv) < n or any(p >= n for p in piv):
            raise ZeroDivisionError("matrix is singular")
        ents = []
        for i in range(n):
            ents.extend(r.row(i)[n:])
        return Matrix(self.field, n, n, ents)


def _cleared(row: Sequence) -> tuple[list[int], int]:
    """``(w, den)``: den the lcm of the rational row's denominators and w the
    row times den, an ``int`` list.  A row of ``int`` values (not ``bool``)
    is copied as it is, with den 1."""
    if all(type(x) is int for x in row):
        return list(row), 1
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive(row: Sequence) -> list[int]:
    """The rational row scaled to a primitive integer row (coprime entries).

    ``gcd`` takes integers only, so one call both finds the content of an
    integer row and, by raising ``TypeError``, sends a row that holds a
    ``Fraction`` to :func:`_cleared` first; an integer row is never tested
    entry by entry."""
    try:
        g = gcd(*row)
    except TypeError:
        row = _cleared(row)[0]
        g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _eliminate(field: Field, rows: Sequence[Sequence], ncols: int, reduced: bool
               ) -> tuple[list[list[int]], list[int]]:
    """Gaussian elimination on plain ``int`` rows; returns the rows and the
    pivot columns.

    Row i < rank is the pivot row of ``pivots[i]``; the rows past the rank are
    zero.  Only the rows below each pivot are cleared, or every other row when
    ``reduced``.  Over F_p the entries are reduced mod p on entry and each
    pivot row is scaled to pivot 1, so with ``reduced`` the rows are the rref.
    Over Q each row is a primitive integer row (see the module docstring), so
    with ``reduced`` row i divided by its pivot entry is row i of the rref.

    An F_p system of more than ``_PACKED_MIN_CELLS`` entries and more than
    ``_PACKED_MIN_ROW_NONZEROS`` nonzero entries per row runs on packed rows
    (:func:`_eliminate_packed`), any other on lists
    (:func:`_eliminate_lists`); both give the same rows and pivots.
    """
    p = field.characteristic
    cells = len(rows) * ncols
    if (p and cells > _PACKED_MIN_CELLS
            and cells - sum(row.count(0) for row in rows) > _PACKED_MIN_ROW_NONZEROS * len(rows)):
        return _eliminate_packed(p, rows, ncols, reduced)
    return _eliminate_lists(field, rows, ncols, reduced)


def _eliminate_lists(field: Field, rows: Sequence[Sequence], ncols: int, reduced: bool
                     ) -> tuple[list[list[int]], list[int]]:
    """:func:`_eliminate` with each row a list of ``int`` entries."""
    p = field.characteristic
    work = [[x % p for x in row] for row in rows] if p else [_primitive(row) for row in rows]
    nr = len(work)
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nr:
            break
        i = next((i for i in range(pr, nr) if work[i][pc]), None)
        if i is None:
            continue
        work[pr], work[i] = work[i], work[pr]
        rp = work[pr]
        a = rp[pc]
        if p and a != 1:
            inv = pow(a, p - 2, p)
            rp = work[pr] = [x * inv % p for x in rp]
        tail = rp[pc:]
        for i in range(0 if reduced else pr + 1, nr):
            ri = work[i]
            c = ri[pc]
            if not c or i == pr:
                continue
            if p:
                # rp is zero left of pc, so only the tail of ri changes.
                ri[pc:] = [(x - c * y) % p for x, y in zip(ri[pc:], tail)]
            else:
                g = gcd(a, c)
                a_g, c_g = a // g, c // g
                ri = [a_g * x - c_g * y for x, y in zip(ri, rp)]
                g = gcd(*ri)
                work[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(pc)
    return work, pivots


def _eliminate_packed(p: int, rows: Sequence[Sequence[int]], ncols: int, reduced: bool
                      ) -> tuple[list[list[int]], list[int]]:
    """:func:`_eliminate` over F_p with each row packed into one ``int``.

    Column j of a row is the slot of w bits at bit j*w, so clearing column
    pc of a row ri with the pivot row rp (pivot 1) is one big-integer
    multiply-add, ``ri + (p - c)*rp`` with c = ri[pc] mod p, instead of one
    Python operation per entry.  A slot is reduced mod p only when it is
    read: the pivot column in the pivot search, and the pivot row from its
    pivot on when it is scaled to pivot 1 (left of the pivot it is 0 mod p).
    Without ``reduced`` a pivot row is not updated after it is scaled, so
    the scaled list is its final row; with ``reduced`` the pivot rows are
    unpacked at the end.  The rows past the rank are 0 mod p in every slot
    and are returned as zero rows.  A slot is one unsigned machine word of
    8, 16, 32 or 64 bits, the narrowest that holds ``need`` bits, or as many
    64-bit words as it takes, so packing and unpacking a row are ``array``
    and ``memoryview`` conversions rather than one call per entry
    (:func:`_slot_words`).

    No slot overflows into the next.  Let b = bitlen(p), m = min(rows, cols)
    and need = 2b + bitlen(m) + 1 <= w.  A slot starts in [0, p).  The pivot
    row is reduced when it is scaled, just before it is added, so an addend
    (p - c)*rp has p - c in [1, p - 1] and slots in [0, p - 1]: it adds less
    than 2^(2b) to each slot, and nothing is ever subtracted, so no slot
    borrows.  A row receives at most one addend per pivot and there are at
    most m pivots, so a slot stays below p + m*2^(2b) < 2^need.  For
    p = ``CERTIFICATE_PRIME`` need = 49 + bitlen(m), one 64-bit word while
    m < 2^15; for p <= 101 need <= 15 + bitlen(m), one 32-bit word while
    m < 2^17.
    """
    nr = len(rows)
    fmt, k = _slot_words(p, min(nr, ncols))
    wb = 8 * array(fmt).itemsize
    w = k * wb
    mask = (1 << w) - 1
    wmask = (1 << wb) - 1

    def pack(vals):
        if k == 1:
            return int.from_bytes(array(fmt, vals), byteorder)
        words = array(fmt, bytes(w // 8 * len(vals)))
        for t in range(0, p.bit_length(), wb):
            words[t // wb::k] = array(fmt, [v >> t & wmask for v in vals])
        return int.from_bytes(words, byteorder)

    def unpack(x, n):
        words = memoryview(x.to_bytes(w // 8 * n, byteorder)).cast(fmt)
        vals = words[::k].tolist()
        for t in range(1, k):
            vals = [v | h << t * wb for v, h in zip(vals, words[t::k].tolist())]
        return [v % p for v in vals]

    work = [pack([x % p for x in row]) for row in rows]
    done = []
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nr:
            break
        first = 0 if reduced else pr
        shift = pc * w
        col = [(x >> shift & mask) % p for x in work[first:]]
        i = next((i for i in range(pr - first, nr - first) if col[i]), None)
        if i is None:
            continue
        j = pr - first
        a, col[i], col[j] = col[i], col[j], 0
        work[pr], work[first + i] = work[first + i], work[pr]
        # The pivot row is zero mod p left of pc: reduce and scale its tail.
        inv = pow(a, p - 2, p)
        tail = [x * inv % p for x in unpack(work[pr] >> shift, ncols - pc)]
        rp = work[pr] = pack(tail) << shift
        done.append([0] * pc + tail)
        for i, c in enumerate(col, first):
            if c:
                work[i] += (p - c) * rp
        pivots.append(pc)
    if reduced:
        # Later pivots updated the pivot rows after they were scaled.
        done = [unpack(x, ncols) for x in work[:len(done)]]
    return done + [[0] * ncols for _ in range(nr - len(done))], pivots


def _slot_words(p: int, m: int) -> tuple[str, int]:
    """The ``array`` type code of the words of one packed slot and how many
    words a slot takes, for an F_p system with min(rows, cols) = m: the
    narrowest of 8, 16, 32 and 64 bits that holds need = 2*bitlen(p) +
    bitlen(m) + 1 bits, or as many 64-bit words as need takes (see
    :func:`_eliminate_packed`)."""
    need = 2 * p.bit_length() + m.bit_length() + 1
    for fmt in "BHIQ":
        wb = 8 * array(fmt).itemsize
        if wb >= need:
            break
    return fmt, -(-need // wb)


def rank_and_kernel(m: Matrix) -> tuple[int, list[tuple]]:
    """Rank and a right kernel basis of ``m``.

    Returns ``(rank, basis)`` where basis vectors are tuples of field values
    spanning ``{v : m v = 0}``; ``rank + len(basis) == m.cols`` always.
    Basis vector a is read off the reduced rows of one elimination of m
    (rref(m) up to row scale), by :func:`kernel_mod_span` with nothing to
    extend: it is 1 at the a-th non-pivot column, zero at the other
    non-pivot columns and zero past its own.  So the coordinates of a kernel
    element in this basis are its entries at the non-pivot columns.
    """
    nullity, basis = kernel_mod_span(m, ())
    return m.cols - nullity, basis


def kernel_mod_span(m: Matrix, vectors: Sequence[Sequence]) -> tuple[int, list[tuple]]:
    """Nullity of ``m`` and the :func:`rank_and_kernel` basis vectors that
    extend ``vectors``, which must be independent vectors of the kernel, to
    a basis of it.

    The choice is the greedy one in basis order: basis vector a is kept
    exactly when it is independent of ``vectors`` and of the vectors kept
    before it.  In kernel coordinates (the entries at the k non-pivot
    columns) e_a is kept exactly when it is not in W + span(e_0, ...,
    e_(a-1)), W the span of the restricted ``vectors``; that is, when W
    projected onto coordinates a, ..., k-1 has no larger dimension than
    projected onto a+1, ..., k-1.  The a where the dimension grows, the
    "right pivots", are the pivot columns of W's echelon form with its
    columns reversed: one elimination of a len(vectors) x k matrix of the
    vectors' own entries.  Certificate: that elimination has rank
    len(vectors), else ``ArithmeticError``; for vectors in the kernel this
    proves them independent, so the nullity - len(vectors) kept vectors
    complete them to a basis.

    Over Q, when ``m`` has no rows and there are at least
    ``_MODULAR_GAUGE_MIN`` vectors, the restricted vectors are first
    eliminated modulo P = ``CERTIFICATE_PRIME`` (see
    :func:`_modular_right_pivots`), each row times the lcm of its
    denominators (a row scale, which changes no pivot).  Let S be the pivots
    mod P and k = len(vectors).  A minor on the columns S is nonzero mod P,
    so it is a nonzero integer, and the columns S are independent over Q.

    - If S is exactly 0, ..., k - 1, these are the right pivots over Q.  In
      an echelon form a column is a pivot exactly when it is independent of
      the columns before it, so each column of S is a pivot over Q; there
      are k rows, so there is no other.  The rank is then k, so the
      certificate above holds as well.
    - If S has k columns but is not that prefix, the Q pivots may differ
      from S (P may divide a minor that is nonzero over Q).  But the
      columns up to max(S) already have rank k over Q, so every Q pivot
      lies among them, and the exact elimination runs on those columns
      only.
    - Otherwise the exact elimination runs on every column.

    Only the kept vectors are built.  The vector of non-pivot column fc is 1
    at fc, zero at the other non-pivot columns, and -row[fc]/row[pc] at the
    pivot column pc of each reduced row: ``rational(-row[fc], row[pc])`` over
    Q, ``(-row[fc]) mod p`` over F_p, where row[pc] = 1.
    """
    p = m.field.characteristic
    rows, pivots = _eliminate(m.field, m.row_lists(), m.cols, reduced=True)
    free = sorted(set(range(m.cols)).difference(pivots))
    restricted = [[v[fc] for fc in reversed(free)] for v in vectors]
    if not p and not m.rows and len(vectors) >= _MODULAR_GAUGE_MIN:
        right = _modular_right_pivots(restricted, len(free))
    else:
        right = _eliminate(m.field, restricted, len(free), reduced=False)[1] if vectors else []
    if len(right) != len(vectors):
        raise ArithmeticError(f"{len(vectors)} vectors have rank {len(right)} in kernel coordinates")
    basis = []
    for fc in sorted(set(free).difference(free[-1 - c] for c in right)):
        v = [m.field.zero()] * m.cols
        v[fc] = m.field.one()
        for row, pc in zip(rows, pivots):
            x = row[fc]
            if x:
                v[pc] = (-x) % p if p else rational(-x, row[pc])
        basis.append(tuple(v))
    return len(free), basis


def _modular_right_pivots(restricted: Sequence[Sequence], ncols: int) -> list[int]:
    """The pivots over Q of the rational ``restricted`` rows, of ``ncols``
    entries, from their pivots modulo ``CERTIFICATE_PRIME`` first: taken
    as they are when they are the prefix 0, ..., k - 1 for k rows, else an
    exact elimination of the columns up to the last of them when they are k
    columns, else of every column (see :func:`kernel_mod_span`)."""
    k = len(restricted)
    cleared = [_cleared(row)[0] for row in restricted]
    modular = _eliminate(GF(CERTIFICATE_PRIME), cleared, ncols, reduced=False)[1]
    if modular == list(range(k)):
        return modular
    if len(modular) == k:
        ncols = modular[-1] + 1
        restricted = [row[:ncols] for row in restricted]
    return _eliminate(QQ, restricted, ncols, reduced=False)[1]


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Exact solution ``x`` of ``a x = b``, or None if certifiably inconsistent.

    Inconsistency means rank([a|b]) > rank(a); free variables are set to zero.
    """
    return solve_with_rank(a, b)[0]


def solve_with_rank(a: Matrix, b: Matrix) -> tuple[Optional[Matrix], int]:
    """``solve(a, b)`` together with ``rank(a)``, from one elimination.

    The left block of rref([a|b]) is rref(a), so its pivots give the rank of
    ``a`` (and ``a.cols - rank`` the dimension of the solution space) without
    a second elimination.
    """
    if a.rows != b.rows:
        raise ShapeError("solve: row count mismatch")
    f = same_field(a.field, b.field)
    aug = a.hstack(b)
    r, pivots = aug.rref()
    rank = sum(1 for p in pivots if p < a.cols)
    if rank < len(pivots):
        return None, rank
    x = Matrix.zeros(f, a.cols, b.cols)
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            x.entries[pc * b.cols + j] = r[i, a.cols + j]
    return x, rank


def quotient_map(span_vectors: Sequence[Sequence], field: Field, dim: int
                 ) -> tuple[Matrix, Matrix]:
    """Quotient of ``k^dim`` by the span of the given vectors.

    Returns ``(q, lift)`` with ``q`` a full-row-rank ``(dim - s) x dim`` matrix
    whose kernel is exactly the span (s = span rank), and ``lift`` a
    ``dim x (dim - s)`` section of ``q`` (``q * lift = identity``).
    """
    m = Matrix(field, len(span_vectors), dim, [x for v in span_vectors for x in v])
    _, kernel = rank_and_kernel(m)
    qdim = len(kernel)
    q = Matrix(field, qdim, dim, [x for v in kernel for x in v])
    lift = Matrix.zeros(field, dim, qdim)
    for a, v in enumerate(kernel):
        # Its free column is its last nonzero entry (see rank_and_kernel),
        # and the other kernel vectors vanish there.
        c = max(j for j, x in enumerate(v) if not field.is_zero(x))
        lift.entries[c * qdim + a] = field.one()
    return q, lift


class EchelonBasis:
    """Incrementally grown basis of a subspace of ``k^dim``, in semi-echelon form.

    Each stored row has its pivot at its first nonzero column and a zero at
    the pivot column of every earlier row.  Rows are plain ``int`` lists, as
    in :func:`_eliminate`: over Q a primitive integer row, over F_p
    residues in ``[0, p)`` with pivot 1.  Reducing a vector is one pass over
    the rows in insertion order, so "does this vector extend the span" costs
    no re-elimination of the span.  Over Q the pass works on
    an integer copy of the vector (denominators cleared) and clears column c
    with the gcd-reduced cross-multiplication ``(a/g)*w - (c/g)*row`` of
    :func:`_eliminate`; over F_p it subtracts ``c*row`` mod p, skipping the
    row's zero entries.  ``insert`` stores the residue divided by its content
    (over Q) or by its pivot (over F_p).  It accepts a vector exactly when it
    is independent of the vectors inserted before it, which keeps greedy
    basis choices identical to comparing ranks of the growing matrix.
    """

    __slots__ = ("field", "dim", "rows", "pivots")

    def __init__(self, field: Field, dim: int, vectors: Sequence[Sequence] = ()):
        self.field = field
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.insert(v)

    def __len__(self) -> int:
        return len(self.rows)

    def _wrong_length(self, v: Sequence) -> ShapeError:
        return ShapeError(f"vector of length {len(v)} in a span of k^{self.dim}")

    def _rational_residue(self, v: Sequence) -> tuple[list[int], int]:
        """Over Q: ``(w, s)`` with ``w / s`` the residue of ``v`` (see
        :meth:`reduce`) and ``w`` an integer row."""
        w, scale = _cleared(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                a = row[pc]
                g = gcd(a, c)
                a_g, c_g = a // g, c // g
                if a_g == 1:
                    # row is zero left of pc, so only the tail of w changes.
                    w[pc:] = [x - c_g * y for x, y in zip(w[pc:], row[pc:])]
                else:
                    w = [a_g * x - c_g * y for x, y in zip(w, row)]
                    scale *= a_g
        return w, scale

    def reduce(self, v: Sequence) -> list:
        """``v`` minus the combination of stored rows that clears every pivot
        column; zero exactly when ``v`` lies in the span.

        The pivot block of the rows is triangular with nonzero diagonal, so
        that combination is unique and the residue is exact: canonical Q
        values (see :mod:`.field`), residues in ``[0, p)`` over F_p.
        """
        n = self.dim
        if len(v) != n:
            raise self._wrong_length(v)
        p = self.field.characteristic
        if not p:
            w, scale = self._rational_residue(v)
            return [rational(x, scale) if x else 0 for x in w]
        w = [x % p for x in v]
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                w[pc] = 0
                for j in range(pc + 1, n):
                    y = row[j]
                    if y:
                        w[j] = (w[j] - c * y) % p
        return w

    def contains(self, v: Sequence) -> bool:
        if self.field.characteristic:
            return not any(self.reduce(v))
        if len(v) != self.dim:
            raise self._wrong_length(v)
        return not any(self._rational_residue(v)[0])

    def insert(self, v: Sequence) -> bool:
        """Add ``v`` to the span; False (and no change) if it already lies in it."""
        n = self.dim
        if len(v) != n:
            raise self._wrong_length(v)
        p = self.field.characteristic
        if p:
            # The F_p pass of reduce, inlined: most inserts are of 2 to 4 entries.
            w = [x % p for x in v]
            for row, pc in zip(self.rows, self.pivots):
                c = w[pc]
                if c:
                    w[pc] = 0
                    for j in range(pc + 1, n):
                        y = row[j]
                        if y:
                            w[j] = (w[j] - c * y) % p
        else:
            w = self._rational_residue(v)[0]
        for pc, a in enumerate(w):
            if a:
                break
        else:
            return False
        if p:
            if a != 1:
                inv = pow(a, p - 2, p)
                w = [x * inv % p for x in w]
        else:
            g = gcd(*w)
            if g != 1:
                w = [x // g for x in w]
        self.rows.append(w)
        self.pivots.append(pc)
        return True


# -- JSON ------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": m.field.name,
        "rows": m.rows,
        "cols": m.cols,
        # str of an int or a (reduced) Fraction is QQ.fmt; F_p entries need
        # not be reduced, so they go through fmt.
        "entries": (list(map(m.field.fmt, m.entries)) if m.field.characteristic
                    else list(map(str, m.entries))),
    }


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else ``ValueError`` naming ``name``:
    a size read with ``int()`` would take 2.9, "2" or true as well."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> Matrix:
    try:
        field = parse_field(obj["field"])
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        entries = [field.parse(s) for s in obj["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldError(f"malformed matrix JSON: {exc}") from exc
    return Matrix(field, rows, cols, entries)
