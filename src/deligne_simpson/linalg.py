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

The exact kernels compute on the triple (a, b, d) that a GaussianRational
(a + b*i)/d holds, d > 0 and gcd(a, b, d) = 1, not through its operators.
`_add_row` takes the ratio of an entry to the pivot with one gcd, and each
updated entry row[j] - pivot_row[j] * ratio as one fraction with one gcd;
`Matrix.__mul__` and `_back_substitute` sum each entry's products over the
lcm of their denominators and reduce the sum once; `Matrix.norm_rowsum`
sums each row's (|a| + |b|) / d the same way and builds one Fraction.
The pivot rule, the row order and the unscaled stored rows are those of
the operator kernel, and a canonical triple is unique, so every entry
stored equals, step by step, the one the operators compute: only the
intermediate gcds and objects are saved.  Every stored entry stays in
lowest terms.  Scaling rows to Gaussian integers instead (fraction-free
elimination) lets the entries of a closure's words grow with every
product.

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

A full-rank fact is first certified modulo one fixed prime PRIME = 1 (mod
4), with i mapped to ROOT, a square root of -1 mod PRIME.  The map
(a + b*i)/d -> (a + b*ROOT) * d^-1 mod PRIME is a ring homomorphism on the
Gaussian rationals whose d is prime to PRIME, so every minor of a matrix
over them reduces to the same minor of the reduced matrix: the rank mod
PRIME never exceeds the rank over Q(i).  A rank mod PRIME that reaches a
bound proven over Q(i) therefore proves the rank equal to it.  The
residues run through the same placement code as the exact map and through
`_add_residue_row`, `_add_row` mod PRIME with each stored row scaled to
pivot 1; a shortfall, or a denominator divisible by PRIME, leaves the fact
to the exact kernel.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .exactnum import GR_ONE, GR_ZERO, GaussianRational, as_gaussian, from_triple, residue_map, triple

# the modular certificate's prime, = 1 (mod 4), and a square root of -1 mod it
PRIME = 1073741789
ROOT = 140687844


class LinalgError(ValueError):
    pass


class SingularMatrixError(LinalgError):
    pass


class Matrix:
    """Immutable matrix with GaussianRational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(as_gaussian(x) for x in row) for row in rows)
        if not converted or not converted[0]:
            raise LinalgError("matrix needs at least one row and one column")
        width = len(converted[0])
        if any(len(r) != width for r in converted):
            raise LinalgError("ragged rows")
        object.__setattr__(self, "rows", converted)

    @classmethod
    def _of(cls, rows) -> "Matrix":
        # rows the engine built: nonempty, rectangular, all GaussianRational
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(
            tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[GR_ZERO] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise LinalgError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = [tuple(map(triple, col)) for col in zip(*other.rows)]
            return Matrix._of(tuple(
                tuple([from_triple(*_dot(row, col)) for col in cols])
                for row in map(_triples, self.rows)
            ))
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        s = as_gaussian(scalar)
        return Matrix._of(tuple(tuple(a * s for a in row) for row in self.rows))

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise LinalgError("trace of a non-square matrix")
        acc = GR_ZERO
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def minus_scalar(self, lam) -> "Matrix":
        """self - lam * I"""
        if not self.is_square:
            raise LinalgError("scalar shift of a non-square matrix")
        lam = as_gaussian(lam)
        return Matrix._of(tuple(
            tuple(x - lam if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(self.rows)
        ))

    def norm_rowsum(self) -> Fraction:
        """Max row sum of |re|+|im| entry magnitudes (submultiplicative).

        Each row's sum of (|a| + |b|) / d is kept over the lcm of its
        denominators, as `_dot` keeps its sums; rows are compared by cross
        multiplication, and one Fraction is built for the largest."""
        best, best_d = 0, 1
        for row in self.rows:
            s, sd = 0, 1
            for a, b, d in map(triple, row):
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

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinalgError("shape mismatch")

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"


# the triple of 0
ZERO = (0, 0, 1)


def _triples(row) -> list[tuple[int, int, int]]:
    return list(map(triple, row))


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
        ra, rb, rd = (a * pa + b * pb) * pd, (b * pa - a * pb) * pd, d * (pa * pa + pb * pb)
        g = gcd(ra, rb, rd)
        if g != 1:
            ra, rb, rd = ra // g, rb // g, rd // g
        row[c] = ZERO
        # row[j] - pivot_row[j] * ratio as one fraction: (a - m) / d when the
        # product's denominator md is d, else (a md - m d) / (d md)
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
    """The pivot rows of the elimination of rows of Gaussian rationals."""
    pivots: dict[int, tuple] = {}
    for row in rows:
        _add_row(pivots, _triples(row))
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


def _back_substitute(pivots: dict[int, tuple], ncols: int, nrhs: int) -> list[list[GaussianRational]]:
    """The solution X, one row per unknown, of the reduced system whose
    last `nrhs` columns are right-hand sides, every free unknown zero.
    Entry r of unknown c is (rhs_r - sum of f_j x_jr) / pivot over the
    pivot row's nonzero f_j, one fraction reduced once."""
    x = [[ZERO] * nrhs for _ in range(ncols)]
    out = [[GR_ZERO] * nrhs for _ in range(ncols)]
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
        out[c] = entries = []
        for r, (ra, rb, rd) in enumerate(rhs):
            sa, sb, sd = _dot(fs, [y[r] for y in known])
            a, b, d = ra * sd - sa * rd, rb * sd - sb * rd, rd * sd
            entries.append(from_triple((a * pa + b * pb) * pd, (b * pa - a * pb) * pd, d * norm))
        x[c] = _triples(entries)
    return out


def pivot_columns(matrix: Matrix) -> list[int]:
    """The pivot columns of the elimination, in increasing order.

    They are the columns that are not combinations of the columns before
    them, so the rank of any leading block of columns is the number of
    pivots inside it.
    """
    return sorted(_reduce(matrix.rows))


def rank(matrix: Matrix) -> int:
    return len(pivot_columns(matrix))


def solve_first(matrix: Matrix, rhs: Sequence[GaussianRational]):
    """(x, rank): one exact solution of matrix @ x = rhs with all free
    variables set to zero, or None when the system is inconsistent, and
    the rank of `matrix`, from the one elimination of the augmented
    system."""
    if len(rhs) != matrix.nrows:
        raise LinalgError("right-hand side length mismatch")
    ncols = matrix.ncols
    pivots = _reduce((*row, as_gaussian(b)) for row, b in zip(matrix.rows, rhs))
    if ncols in pivots:
        return None, len(pivots) - 1
    return [xc[0] for xc in _back_substitute(pivots, ncols, 1)], len(pivots)


def left_divide(c: Matrix, b: Matrix) -> Matrix:
    """c^-1 b, for a square c, from one elimination of [c | b].

    [c | b] has rank n whatever b is; c is invertible exactly when all n
    pivots lie in c's block, and then the back-substituted right-hand
    sides are c^-1 b.  SingularMatrixError otherwise."""
    n = c.nrows
    if not c.is_square or b.nrows != n:
        raise LinalgError(f"cannot divide {b.nrows}x{b.ncols} on the left by {n}x{c.ncols}")
    pivots = _reduce(map(tuple.__add__, c.rows, b.rows))
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


def algebra_dimension(matrices: Sequence[Matrix]) -> int:
    """Dimension of the unital algebra generated by the square matrices.

    The span of the words in the generators is closed by left-multiplying
    every independent word by every generator, shortest words first: the
    span does not depend on the order, and short words keep entries small.
    """
    n = matrices[0].nrows
    return _closure(matrices, Matrix.identity(n), Matrix.__mul__, lambda m: _triples(vec(m)), _add_row)


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
    """Each matrix's rows reduced mod PRIME, or None when PRIME divides a
    denominator."""
    residue = residue_map(PRIME, ROOT)
    out = []
    for m in matrices:
        rows = tuple(tuple(map(residue, row)) for row in m.rows)
        if any(None in row for row in rows):
            return None
        out.append(rows)
    return out


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
        for v in _supports(_placed(rows, n), n):
            if len(pivots) == bound:
                return bound
            column = [0] * (n * n)
            for p, x in v.items():
                column[p] = x
            _add_residue_row(pivots, column)
    return len(pivots)


def _residue_algebra_dimension(residues) -> int:
    """`algebra_dimension` of the reduced matrices, mod PRIME."""
    n = len(residues[0])
    one = tuple(tuple(int(r == s) for s in range(n)) for r in range(n))
    return _closure(residues, one, _residue_product, lambda m: [x for row in m for x in row], _add_residue_row)


def _residue_product(a, b):
    """The product mod PRIME of two reduced matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % PRIME for col in cols) for row in a)


def vec(matrix: Matrix) -> tuple[GaussianRational, ...]:
    """Row-major flattening."""
    return tuple(x for row in matrix.rows for x in row)


def basis_matrix(n: int, r: int, s: int) -> Matrix:
    rows = [[GR_ZERO] * n for _ in range(n)]
    rows[r][s] = GR_ONE
    return Matrix(rows)


def sl_basis(n: int) -> list[Matrix]:
    """Trace-zero basis: all off-diagonal units, then E_ii - E_(i+1)(i+1)."""
    out = [basis_matrix(n, r, s) for r in range(n) for s in range(n) if r != s]
    for i in range(n - 1):
        rows = [[GR_ZERO] * n for _ in range(n)]
        rows[i][i] = GR_ONE
        rows[i + 1][i + 1] = -GR_ONE
        out.append(Matrix(rows))
    return out


def sl_element(n: int, coords: Sequence[GaussianRational]) -> Matrix:
    """The trace-zero matrix sum of coords[i] * sl_basis(n)[i], written
    entry by entry: the off-diagonal coordinates in place, then diagonal
    entry i is d_i - d_(i-1), d_i the coordinate of E_ii - E_(i+1)(i+1)
    and d_(-1) = d_(n-1) = 0."""
    off = iter(coords[: n * n - n])
    rows = [[GR_ZERO if r == s else next(off) for s in range(n)] for r in range(n)]
    diag = [GR_ZERO, *coords[n * n - n :], GR_ZERO]
    for i in range(n):
        rows[i][i] = diag[i + 1] - diag[i]
    return Matrix(rows)


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
    columns: list[list[GaussianRational]] = []
    for j, m in enumerate(matrices):
        image = _placed(m.rows, n) if outer is None else _multiplied(m, *outer[j], n)
        for v in _supports(image, n):
            column = [GR_ZERO] * (n * n)
            for p, x in v.items():
                column[p] = x
            columns.append(column)
    return Matrix._of(tuple(zip(*columns)))


def _supports(image, n: int) -> list[dict]:
    """The supports of image(b) for b in sl_basis(n), in order."""
    diagonal = [image(i, i) for i in range(n)]
    for step, nxt in zip(diagonal, diagonal[1:]):
        for p, x in nxt.items():
            step[p] = step[p] - x if p in step else -x
    return [image(r, s) for r in range(n) for s in range(n) if r != s] + diagonal[:-1]


def _placed(rows, n: int):
    """image(r, s), the support of [M, E_rs] for the matrix with these rows;
    the entries may be Gaussian rationals or residues."""
    cols = _nonzero(zip(*rows))
    neg_rows = [[(b, -y) for b, y in row] for row in _nonzero(rows)]

    def image(r: int, s: int) -> dict:
        v = {a * n + s: x for a, x in cols[r]}
        v.update((r * n + b, y) for b, y in neg_rows[s])
        v[r * n + s] = rows[r][r] - rows[s][s]
        return v

    return image


def _multiplied(m: Matrix, left: Matrix, right: Matrix, n: int):
    left_cols, lm_cols = _nonzero(zip(*left.rows)), _nonzero(zip(*(left * m).rows))
    right_rows, mr_rows = _nonzero(right.rows), _nonzero((m * right).rows)

    def image(r: int, s: int) -> dict[int, GaussianRational]:
        v = {a * n + b: x * y for a, x in lm_cols[r] for b, y in right_rows[s]}
        for a, x in left_cols[r]:
            for b, y in mr_rows[s]:
                p = a * n + b
                v[p] = v[p] - x * y if p in v else -(x * y)
        return v

    return image


def _nonzero(lines) -> list[list[tuple[int, object]]]:
    """Per line, the (position, entry) pairs of its nonzero entries."""
    return [[(i, x) for i, x in enumerate(line) if x] for line in lines]
