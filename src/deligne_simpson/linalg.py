"""Dense exact linear algebra over Gaussian rationals.

Everything is deterministic: pivots are chosen as the first nonzero entry
scanning rows top-down and columns left-right, so ranks, solutions and
inverses are bit-identical across runs.

Every witness check ranks one tangent map, built by `commutator_operator`:
(X_1..X_k) -> sum of [M_j, X_j] with each X_j in sl_n.  Its rows index
vec(Y), the row-major flattening of an n x n matrix Y (entry (a, b) at
row a * n + b); its columns run over the matrices in tuple order and,
within one matrix, over `sl_basis(n)` in order: the off-diagonal units
E_rs row by row, then E_ii - E_(i+1)(i+1).  So the matrix is
n^2 x k(n^2 - 1), and its image is the trace-form orthogonal complement
of the tuple's centralizer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import GR_ONE, GR_ZERO, GaussianRational


class LinalgError(ValueError):
    pass


class SingularMatrixError(LinalgError):
    pass


def _entry(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


class Matrix:
    """Immutable matrix with GaussianRational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(_entry(x) for x in row) for row in rows)
        if not converted or not converted[0]:
            raise LinalgError("matrix needs at least one row and one column")
        width = len(converted[0])
        if any(len(r) != width for r in converted):
            raise LinalgError("ragged rows")
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
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
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise LinalgError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows))
            out = []
            for row in self.rows:
                out_row = []
                for col in cols:
                    acc = GR_ZERO
                    for a, b in zip(row, col):
                        if a and b:
                            acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return Matrix(out)
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        s = _entry(scalar)
        return Matrix([[a * s for a in row] for row in self.rows])

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
        lam = _entry(lam)
        return Matrix(
            [
                [
                    self.rows[i][j] - lam if i == j else self.rows[i][j]
                    for j in range(self.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def norm_rowsum(self) -> Fraction:
        """Max row sum of |re|+|im| entry magnitudes (submultiplicative)."""
        return max(sum((x.l1() for x in row), Fraction(0)) for row in self.rows)

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinalgError("shape mismatch")

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def _echelon(rows: list[list[GaussianRational]]) -> list[tuple[int, int]]:
    """In-place forward elimination; returns (row, col) pivot positions."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                ratio = f / pv
                row_i, row_r = rows[i], rows[r]
                for j in range(c, ncols):
                    if row_r[j]:
                        row_i[j] = row_i[j] - row_r[j] * ratio
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def pivot_columns(matrix: Matrix) -> list[int]:
    """The pivot columns of the elimination, in increasing order.

    Elimination works column by column, and whether a column holds a pivot
    depends only on it and the columns before it, so the rank of any
    leading block of columns is the number of pivots inside it.
    """
    rows = [list(row) for row in matrix.rows]
    return [c for _, c in _echelon(rows)]


def rank(matrix: Matrix) -> int:
    return len(pivot_columns(matrix))


def solve_first(matrix: Matrix, rhs: Sequence[GaussianRational]):
    """(x, rank): one exact solution of matrix @ x = rhs with all free
    variables set to zero, or None when the system is inconsistent, and
    the rank of `matrix`, from the one elimination of the augmented
    system."""
    if len(rhs) != matrix.nrows:
        raise LinalgError("right-hand side length mismatch")
    aug = [list(row) + [_entry(b)] for row, b in zip(matrix.rows, rhs)]
    pivots = _echelon(aug)
    ncols = matrix.ncols
    # the right-hand side is the last column, so a pivot there is the last
    # pivot; without one it vanishes in every row below the pivot rows
    if pivots and pivots[-1][1] == ncols:
        return None, len(pivots) - 1
    x = [GR_ZERO] * ncols
    for r, c in reversed(pivots):
        acc = aug[r][ncols]
        row = aug[r]
        for j in range(c + 1, ncols):
            if row[j] and x[j]:
                acc = acc - row[j] * x[j]
        x[c] = acc / row[c]
    return x, len(pivots)


def inverse(matrix: Matrix) -> Matrix:
    if not matrix.is_square:
        raise LinalgError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = [
        list(row) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
        for i, row in enumerate(matrix.rows)
    ]
    pivots = _echelon(aug)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    # back-substitute to reduced form
    for r, c in reversed(pivots):
        pv = aug[r][c]
        if pv != GR_ONE:
            aug[r] = [x / pv for x in aug[r]]
        for i in range(r):
            f = aug[i][c]
            if f:
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
    return Matrix([row[n:] for row in aug])


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


def commutator_operator(
    matrices: Sequence[Matrix],
    outer: Sequence[tuple[Matrix, Matrix]] | None = None,
) -> Matrix:
    """The tangent map (X_1..X_k) -> sum of L_j [M_j, X_j] R_j as a matrix.

    Column j * (n^2 - 1) + i is vec(L_j [M_j, b_i] R_j), b_i the i-th
    element of sl_basis(n); `outer` holds the pairs (L_j, R_j), identities
    when omitted.  Each column is read off the entries through
    L [M, E_rs] R = (LM) E_rs R - L E_rs (MR).  At n = 1 the map is zero on
    a zero space; one zero column stands for it, so its rank is 0.
    """
    matrices = tuple(matrices)
    n = matrices[0].nrows
    if n == 1:
        return Matrix.zeros(1, 1)
    identity = Matrix.identity(n)
    columns: list[list[GaussianRational]] = []
    for j, m in enumerate(matrices):
        left, right = (identity, identity) if outer is None else outer[j]
        left_cols, lm_cols = _nonzero(zip(*left.rows)), _nonzero(zip(*(left * m).rows))
        right_rows, mr_rows = _nonzero(right.rows), _nonzero((m * right).rows)

        def image(r: int, s: int) -> list[GaussianRational]:
            v = [GR_ZERO] * (n * n)
            for a, x in lm_cols[r]:
                for b, y in right_rows[s]:
                    v[a * n + b] = v[a * n + b] + x * y
            for a, x in left_cols[r]:
                for b, y in mr_rows[s]:
                    v[a * n + b] = v[a * n + b] - x * y
            return v

        columns.extend(image(r, s) for r in range(n) for s in range(n) if r != s)
        diagonal = [image(i, i) for i in range(n)]
        columns.extend(
            [x - y for x, y in zip(diagonal[i], diagonal[i + 1])] for i in range(n - 1)
        )
    return Matrix(zip(*columns))


def _nonzero(lines) -> list[list[tuple[int, GaussianRational]]]:
    """Per line, the (position, entry) pairs of its nonzero entries."""
    return [[(i, x) for i, x in enumerate(line) if x] for line in lines]
