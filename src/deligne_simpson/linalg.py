"""Dense exact linear algebra over Gaussian rationals.

Every rank, solve, left division and algebra dimension runs one
elimination loop, `_add_row`: each row in turn is reduced against the
pivot rows kept so far and, if anything is left, kept unscaled under the
column of its first nonzero entry.  No result depends on this pivot rule
or on the row order: the set of pivot columns is an invariant of the row
space, the solution with every free variable zero is unique, and so is
c^-1 b.  Left division, `left_divide(c, b)`, eliminates [c | b] once and
back-substitutes its right-hand sides; no inverse is built (c^-1 is
`left_divide(c, Matrix.identity(n))`).

A `Matrix` stores each entry (a + b*i)/d as its canonical triple (a, b, d),
d > 0 and gcd(a, b, d) = 1; every method and kernel computes on triples,
including `vec` and `solve_first`, which take and return one-column
matrices, and Gaussian rationals are built only for the views `rows`,
`m[i, j]` and `trace()`.  `_add_row` takes the ratio of an
entry to the pivot with one gcd, and each updated entry row[j] -
pivot_row[j] * ratio as one fraction with one gcd; `Matrix.__mul__` and
`_back_substitute` sum each entry's products over the lcm of their
denominators and reduce the sum once; `Matrix.norm_rowsum` sums each
row's (|a| + |b|) / d the same way and builds one Fraction.  The pivot
rule, the row order and the unscaled stored rows are those of the
operator kernel, and a canonical triple is unique, so every entry equals,
step by step, the one the operators compute.  Scaling rows to Gaussian
integers instead (fraction-free elimination) lets the entries of a
closure's words grow with every product.

Every witness check ranks one tangent map, built by `commutator_operator`:
(X_1..X_k) -> sum of [M_j, X_j] with each X_j in sl_n.  Its rows index
vec(Y), the row-major flattening of an n x n matrix Y (entry (a, b) at
row a * n + b); its columns run over the matrices in tuple order and,
within one matrix, over `sl_basis(n)` in order: the off-diagonal units
E_rs row by row, then E_ii - E_(i+1)(i+1).  So the matrix is
n^2 x k(n^2 - 1), and its image is the trace-form orthogonal complement
of the tuple's centralizer.

The map is written, not multiplied out: [M, E_rs] is column r of M
placed at column s minus row s of M placed at row r, and the overlap
M[r][r] - M[s][s] is its one computed entry.  With outer factors,
L [M, E_rs] R = (LM) E_rs R - L E_rs (MR) costs one product per pair of
nonzero entries.  Each image is held as its support {position: entry},
so a diagonal column E_ii - E_(i+1)(i+1) differences two supports.

This module alone decides when a fact is proven modulo one fixed prime
PRIME = 1 (mod 4), with i mapped to ROOT, a square root of -1 mod PRIME,
and against which bound: rank n in `is_invertible`, n^2 - n for the
tangent map of one matrix and n^2 - 1 for that of several in
`tangent_ranks`, n^2 in `algebra_dimension`.  The map (a + b*i)/d ->
(a + b*ROOT) * d^-1 mod PRIME is a ring homomorphism on the Gaussian
rationals whose d is prime to PRIME, so every minor of a matrix over them
reduces to the same minor of the reduced matrix: the rank mod PRIME never
exceeds the rank over Q(i), and a rank mod PRIME that reaches a bound
proven over Q(i) proves the rank equal to it.  Each `Matrix` reduces its
rows mod PRIME once, on first use; they run through the same placement
code as the exact map and through `_add_residue_row`, `_add_row` mod
PRIME with each stored row scaled to pivot 1.  A shortfall, or a
denominator divisible by PRIME, leaves the fact to the exact kernel.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd
from operator import mul, neg, sub
from typing import Iterable, Sequence

from .exactnum import GaussianRational, _make, canonical, residue_map, triple
from .exactnum import triple_add, triple_mul, triple_neg, triple_sub

# the modular certificate's prime, = 1 (mod 4), and a square root of -1 mod it
PRIME = 1073741789
ROOT = 140687844


class LinalgError(ValueError):
    pass


class SingularMatrixError(LinalgError):
    pass


class Matrix:
    """Immutable matrix over Q(i), stored as rows of canonical triples.

    `Matrix(rows)` takes anything `exactnum.triple` accepts and keeps each
    entry's triple (a, b, d); every method and kernel computes on those.
    `rows` and `m[i, j]` are a read-only view: they build the entries'
    Gaussian rationals on demand.  The rows mod PRIME are kept once
    reduced, for the certificates.
    """

    __slots__ = ("_rows", "_mod_prime")

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(map(triple, row)) for row in rows)
        if not converted or not converted[0]:
            raise LinalgError("matrix needs at least one row and one column")
        width = len(converted[0])
        if any(len(r) != width for r in converted):
            raise LinalgError("ragged rows")
        object.__setattr__(self, "_rows", converted)

    @classmethod
    def _of(cls, rows) -> "Matrix":
        # rows the engine built: nonempty, rectangular, canonical triples
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return tuple(tuple(map(_make, row)) for row in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return _make(self._rows[i][j])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            tuple(tuple(map(triple_add, ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            tuple(tuple(map(triple_sub, ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(map(triple_neg, row)) for row in self._rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise LinalgError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = tuple(zip(*other._rows))
            return Matrix._of(tuple(
                tuple([canonical(*_dot(row, col)) for col in cols]) for row in self._rows
            ))
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        s = triple(scalar)
        return Matrix._of(tuple(tuple([triple_mul(a, s) for a in row]) for row in self._rows))

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise LinalgError("trace of a non-square matrix")
        return _make(reduce(triple_add, (row[i] for i, row in enumerate(self._rows)), ZERO))

    def is_zero(self) -> bool:
        return all(t == ZERO for row in self._rows for t in row)

    def minus_scalar(self, lam) -> "Matrix":
        """self - lam * I"""
        if not self.is_square:
            raise LinalgError("scalar shift of a non-square matrix")
        lam = triple(lam)
        return Matrix._of(tuple(
            (*row[:i], triple_sub(row[i], lam), *row[i + 1 :]) for i, row in enumerate(self._rows)
        ))

    def norm_rowsum(self) -> Fraction:
        """Max row sum of |re|+|im| entry magnitudes (submultiplicative).

        Each row's sum of (|a| + |b|) / d is kept over the lcm of its
        denominators, as `_dot` keeps its sums; rows are compared by cross
        multiplication, and one Fraction is built for the largest."""
        best, best_d = 0, 1
        for row in self._rows:
            s, sd = 0, 1
            for a, b, d in row:
                if a or b:
                    m = abs(a) + abs(b)
                    if d == sd:
                        s += m
                    else:
                        g = gcd(sd, d)
                        u = d // g
                        s, sd = s * u + m * (sd // g), sd * u
            if s * best_d > best * sd:
                best, best_d = s, sd
        return Fraction(best, best_d)

    def _residue_rows(self) -> tuple[tuple[int, ...], ...] | None:
        """The rows mod PRIME, reduced on first use, or None when PRIME
        divides a denominator."""
        try:
            return self._mod_prime
        except AttributeError:
            residue = residue_map(PRIME, ROOT)
            rows = tuple(tuple(map(residue, row)) for row in self._rows)
            object.__setattr__(self, "_mod_prime", None if any(None in row for row in rows) else rows)
            return self._mod_prime

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinalgError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"Matrix[{body}]"


# the triples of 0 and 1, and the (zero, sub, neg) of triples and of residues
ZERO, ONE = (0, 0, 1), (1, 0, 1)
EXACT, MODULAR = (ZERO, triple_sub, triple_neg), (0, sub, neg)


def _add_row(pivots: dict[int, tuple], row: list[tuple[int, int, int]]) -> bool:
    """Reduce `row`, a list of canonical triples, in place against the
    stored pivot rows.  If a nonzero entry remains, store the row, unscaled,
    under the column c of its first nonzero entry, as that entry and the
    (column, a, b, d) of its nonzero entries right of c, and return True;
    otherwise return False."""
    for c, (a, b, d) in enumerate(row):
        if not (a or b):
            continue
        pivot = pivots.get(c)
        if pivot is None:
            pivots[c] = (row[c], [(j, *t) for j, t in enumerate(row[c + 1 :], c + 1) if t[0] or t[1]])
            return True
        (pa, pb, pd), tail = pivot
        # the ratio row[c] / pivot entry, times the conjugate over the norm
        ra, rb, rd = canonical((a * pa + b * pb) * pd, (b * pa - a * pb) * pd, d * (pa * pa + pb * pb))
        row[c] = ZERO
        # row[j] - pivot_row[j] * ratio as one fraction: (a - m) / d when the
        # product's denominator md is d, else (a md - m d) / (d md), reduced
        # as `canonical` reduces but inline, in the kernel's innermost loop
        for j, fa, fb, fd in tail:
            ma, mb, md = fa * ra - fb * rb, fa * rb + fb * ra, fd * rd
            ea, eb, ed = row[j]
            if ed == md:
                ea, eb = ea - ma, eb - mb
            else:
                ea, eb, ed = ea * md - ma * ed, eb * md - mb * ed, ed * md
            g = gcd(ea, eb, ed)
            row[j] = (ea, eb, ed) if g == 1 else (ea // g, eb // g, ed // g)
    return False


def _reduce(rows) -> dict[int, tuple]:
    """The pivot rows of the elimination of rows of canonical triples."""
    pivots: dict[int, tuple] = {}
    for row in rows:
        _add_row(pivots, list(row))
    return pivots


def _dot(xs, ys) -> tuple[int, int, int]:
    """The sum of x * y over paired triples, as (a, b, d) not in lowest
    terms: d is the lcm of the products' denominators, grown term by term."""
    sa = sb = 0
    sd = 1
    for (a1, b1, d1), (a2, b2, d2) in zip(xs, ys):
        if (a1 or b1) and (a2 or b2):
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            if d == sd:
                sa += a
                sb += b
            else:
                g = gcd(sd, d)
                u, v = d // g, sd // g
                sa, sb, sd = sa * u + a * v, sb * u + b * v, sd * u
    return sa, sb, sd


def _back_substitute(pivots: dict[int, tuple], ncols: int, nrhs: int) -> list[list[tuple]]:
    """The solution X, one row of triples per unknown, of the reduced
    system whose last `nrhs` columns are right-hand sides, every free
    unknown zero.  Entry r of unknown c is (rhs_r - sum of f_j x_jr) /
    pivot over the pivot row's nonzero f_j, one fraction reduced once."""
    x = [[ZERO] * nrhs for _ in range(ncols)]
    for c in sorted(pivots, reverse=True):
        (pa, pb, pd), tail = pivots[c]
        rhs = [ZERO] * nrhs
        fs, known = [], []
        for j, a, b, d in tail:
            if j < ncols:
                fs.append((a, b, d))
                known.append(x[j])
            else:
                rhs[j - ncols] = (a, b, d)
        norm = pa * pa + pb * pb
        x[c] = entries = []
        for r, (ra, rb, rd) in enumerate(rhs):
            sa, sb, sd = _dot(fs, [y[r] for y in known])
            a, b, d = ra * sd - sa * rd, rb * sd - sb * rd, rd * sd
            entries.append(canonical((a * pa + b * pb) * pd, (b * pa - a * pb) * pd, d * norm))
    return x


def pivot_columns(matrix: Matrix) -> list[int]:
    """The pivot columns of the elimination, in increasing order.

    They are the columns that are not combinations of the columns before
    them, so the rank of any leading block of columns is the number of
    pivots inside it.
    """
    return sorted(_reduce(matrix._rows))


def rank(matrix: Matrix) -> int:
    return len(pivot_columns(matrix))


def solve_first(matrix: Matrix, rhs: Matrix):
    """(x, rank): one exact solution x, a one-column matrix, of matrix @ x
    = rhs, a one-column matrix, with all free variables set to zero, or
    None when the system is inconsistent, and the rank of `matrix`, from
    the one elimination of the augmented system."""
    if rhs.nrows != matrix.nrows or rhs.ncols != 1:
        raise LinalgError("right-hand side must be one column of matching length")
    ncols = matrix.ncols
    pivots = _reduce(map(tuple.__add__, matrix._rows, rhs._rows))
    if ncols in pivots:
        return None, len(pivots) - 1
    return Matrix._of(tuple(map(tuple, _back_substitute(pivots, ncols, 1)))), len(pivots)


def left_divide(c: Matrix, b: Matrix) -> Matrix:
    """c^-1 b, for a square c, from one elimination of [c | b].

    [c | b] has rank n whatever b is; c is invertible exactly when all n
    pivots lie in c's block, and then the back-substituted right-hand
    sides are c^-1 b.  SingularMatrixError otherwise."""
    n = c.nrows
    if not c.is_square or b.nrows != n:
        raise LinalgError(f"cannot divide {b.nrows}x{b.ncols} on the left by {n}x{c.ncols}")
    pivots = _reduce(map(tuple.__add__, c._rows, b._rows))
    if sum(p < n for p in pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix._of(tuple(map(tuple, _back_substitute(pivots, n, b.ncols))))


def _add_residue_row(pivots: dict[int, list[tuple[int, int]]], row: list[int]) -> bool:
    """`_add_row` mod PRIME.  The row holds any integers, read mod PRIME;
    a stored row keeps only its entries right of the pivot column, as
    (column, entry) pairs scaled so that the pivot entry is 1."""
    width = len(row)
    for c in range(width):
        x = row[c] % PRIME
        if not x:
            continue
        tail = pivots.get(c)
        if tail is None:
            inv = pow(x, -1, PRIME)
            pivots[c] = [(j, y * inv % PRIME) for j in range(c + 1, width) if (y := row[j] % PRIME)]
            return True
        for j, y in tail:
            row[j] -= x * y
    return False


def is_invertible(m: Matrix) -> bool:
    """Whether the square matrix has rank n: proven by rank n mod PRIME,
    otherwise decided by the exact rank."""
    n = m.nrows
    residues = m._residue_rows()
    return (residues is not None and _residue_rank(residues) == n) or rank(m) == n


def tangent_ranks(matrices: Sequence[Matrix], leading: int) -> tuple[int, int]:
    """The ranks of the tangent map of the matrices and of the map of
    their first `leading` matrices (its first leading (n^2 - 1) columns),
    1 <= leading <= k.

    Every centralizer has dimension at least n and commutators are
    trace-zero, so the map's rank is at most n^2 - n for one matrix and
    n^2 - 1 for several.  The first `leading` matrices can reach the whole
    map's bound only when they are all of them or at least two; reached
    mod PRIME, it is both ranks.  Otherwise one exact elimination decides:
    the map's `rank`, or its pivot columns when `leading` < k."""
    n, k = matrices[0].nrows, len(matrices)
    bound = n * n - (n if k == 1 else 1)
    if leading == k or leading > 1:
        residues = _residues(matrices[:leading])
        if residues is not None and _residue_tangent_rank(residues, bound) == bound:
            return bound, bound
    operator = commutator_operator(matrices)
    if leading == k:
        return (rank(operator),) * 2
    pivots = pivot_columns(operator)
    return len(pivots), sum(c < leading * (n * n - 1) for c in pivots)


def algebra_dimension(matrices: Sequence[Matrix]) -> int:
    """Dimension of the unital algebra generated by the square matrices.

    n^2 words independent mod PRIME are independent over Q(i), so a
    closure mod PRIME that reaches n^2 proves the full dimension;
    otherwise `exact_algebra_dimension` decides."""
    n = matrices[0].nrows
    residues = _residues(matrices)
    if residues is not None:
        one = tuple(tuple(int(r == s) for s in range(n)) for r in range(n))
        if _closure(residues, one, _residue_product, lambda m: [*chain(*m)], _add_residue_row) == n * n:
            return n * n
    return exact_algebra_dimension(matrices)


def exact_algebra_dimension(matrices: Sequence[Matrix]) -> int:
    """`algebra_dimension` by the exact closure alone.

    The span of the words in the generators is closed by left-multiplying
    every independent word by every generator, shortest words first: the
    span does not depend on the order, and short words keep entries small.
    """
    n = matrices[0].nrows
    return _closure(matrices, Matrix.identity(n), Matrix.__mul__, lambda m: [*chain(*m._rows)], _add_row)


def _closure(gens, one, product, flat, add_row) -> int:
    """The rank of the words in `gens`, closed breadth first from `one`
    with `product` and eliminated with `add_row` on `flat` copies, up to
    the full n^2."""
    pivots: dict = {}
    queue = deque([one])
    first = flat(one)
    full = len(first)
    add_row(pivots, first)
    while queue and len(pivots) < full:
        m = queue.popleft()
        for g in gens:
            p = product(g, m)
            if add_row(pivots, flat(p)):
                queue.append(p)
    return len(pivots)


def _residues(matrices: Sequence[Matrix]) -> list[tuple[tuple[int, ...], ...]] | None:
    """Each matrix's rows mod PRIME, or None when PRIME divides a
    denominator of one of them."""
    out = [m._residue_rows() for m in matrices]
    return None if None in out else out


def _residue_rank(rows) -> int:
    """The rank mod PRIME of a matrix of residues."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        _add_residue_row(pivots, list(row))
    return len(pivots)


def _residue_tangent_rank(residues, bound: int) -> int:
    """The rank mod PRIME of the tangent map of the reduced matrices, its
    columns eliminated in order until the rank reaches `bound`."""
    n = len(residues[0])
    pivots: dict[int, list[tuple[int, int]]] = {}
    for rows in residues:
        for v in _supports(_placed(rows, n, MODULAR), n, MODULAR):
            if len(pivots) == bound:
                return bound
            column = [0] * (n * n)
            for p, x in v.items():
                column[p] = x
            _add_residue_row(pivots, column)
    return len(pivots)


def _residue_product(a, b):
    """The product mod PRIME of two reduced matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % PRIME for col in cols) for row in a)


def vec(matrix: Matrix) -> Matrix:
    """The row-major flattening, as one column."""
    return Matrix._of(tuple((t,) for t in chain(*matrix._rows)))


def basis_matrix(n: int, r: int, s: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    rows[r][s] = 1
    return Matrix(rows)


def sl_basis(n: int) -> list[Matrix]:
    """Trace-zero basis: all off-diagonal units, then E_ii - E_(i+1)(i+1)."""
    out = [basis_matrix(n, r, s) for r in range(n) for s in range(n) if r != s]
    for i in range(n - 1):
        rows = [[0] * n for _ in range(n)]
        rows[i][i] = 1
        rows[i + 1][i + 1] = -1
        out.append(Matrix(rows))
    return out


def sl_element(n: int, coords: Matrix, block: int) -> Matrix:
    """The trace-zero matrix sum of c_i * sl_basis(n)[i], c_i the entry
    block * (n^2 - 1) + i of the one-column matrix `coords`, written entry
    by entry: the off-diagonal coordinates in place, then diagonal entry i
    is d_i - d_(i-1), d_i the coordinate of E_ii - E_(i+1)(i+1) and
    d_(-1) = d_(n-1) = 0."""
    size = n * n - 1
    c = [row[0] for row in coords._rows[block * size : (block + 1) * size]]
    off = iter(c[: n * n - n])
    rows = [[ZERO if r == s else next(off) for s in range(n)] for r in range(n)]
    diag = [ZERO, *c[n * n - n :], ZERO]
    for i in range(n):
        rows[i][i] = triple_sub(diag[i + 1], diag[i])
    return Matrix._of(tuple(map(tuple, rows)))


def commutator_operator(
    matrices: Sequence[Matrix],
    outer: Sequence[tuple[Matrix, Matrix]] | None = None,
) -> Matrix:
    """The tangent map (X_1..X_k) -> sum of L_j [M_j, X_j] R_j as a matrix.

    Column j * (n^2 - 1) + i is vec(L_j [M_j, b_i] R_j), b_i the i-th
    element of sl_basis(n); `outer` holds the pairs (L_j, R_j), identities
    when omitted.  At n = 1 the map is zero on a zero space; one zero
    column stands for it, so its rank is 0.
    """
    matrices = tuple(matrices)
    n = matrices[0].nrows
    if n == 1:
        return Matrix.zeros(1, 1)
    columns: list[list[tuple[int, int, int]]] = []
    for j, m in enumerate(matrices):
        image = _placed(m._rows, n, EXACT) if outer is None else _multiplied(m, *outer[j], n)
        for v in _supports(image, n, EXACT):
            column = [ZERO] * (n * n)
            for p, x in v.items():
                column[p] = x
            columns.append(column)
    return Matrix._of(tuple(zip(*columns)))


def _supports(image, n: int, ring) -> list[dict]:
    """The supports of image(b) for b in sl_basis(n), in order, with the
    entries' (zero, sub, neg) in `ring`."""
    _, sub, neg = ring
    diagonal = [image(i, i) for i in range(n)]
    for step, nxt in zip(diagonal, diagonal[1:]):
        for p, x in nxt.items():
            step[p] = sub(step[p], x) if p in step else neg(x)
    return [image(r, s) for r in range(n) for s in range(n) if r != s] + diagonal[:-1]


def _placed(rows, n: int, ring):
    """image(r, s), the support of [M, E_rs] for the matrix with these rows;
    the entries are triples (ring EXACT) or residues (ring MODULAR)."""
    zero, sub, neg = ring
    cols = _nonzero(zip(*rows), zero)
    neg_rows = [[(b, neg(y)) for b, y in row] for row in _nonzero(rows, zero)]

    def image(r: int, s: int) -> dict:
        v = {a * n + s: x for a, x in cols[r]}
        v.update((r * n + b, y) for b, y in neg_rows[s])
        v[r * n + s] = sub(rows[r][r], rows[s][s])
        return v

    return image


def _multiplied(m: Matrix, left: Matrix, right: Matrix, n: int):
    left_cols, lm_cols = _nonzero(zip(*left._rows), ZERO), _nonzero(zip(*(left * m)._rows), ZERO)
    right_rows, mr_rows = _nonzero(right._rows, ZERO), _nonzero((m * right)._rows, ZERO)

    def image(r: int, s: int) -> dict[int, tuple[int, int, int]]:
        v = {a * n + b: triple_mul(x, y) for a, x in lm_cols[r] for b, y in right_rows[s]}
        for a, x in left_cols[r]:
            for b, y in mr_rows[s]:
                p = a * n + b
                v[p] = triple_sub(v[p], triple_mul(x, y)) if p in v else triple_neg(triple_mul(x, y))
        return v

    return image


def _nonzero(lines, zero) -> list[list[tuple[int, object]]]:
    """Per line, the (position, entry) pairs of its entries other than `zero`."""
    return [[(i, x) for i, x in enumerate(line) if x != zero] for line in lines]
