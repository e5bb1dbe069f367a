"""Exact eigenvalue arithmetic for sum-zero and product-identity problems.

Additive eigenvalues are Gaussian rationals.  Multiplicative eigenvalues are
pairs (angle, magnitude) encoding magnitude * exp(2*pi*i*angle) with both
components exact rationals; that subgroup of C* is closed under products,
has decidable identity, and covers every root of unity.  Genericity means:
no selection of equally many eigenvalues from every class (respecting
multiplicities, fewer than n per class) sums to zero, respectively
multiplies to one.

The mode objects `ADDITIVE` and `MULTIPLICATIVE`, each a `str` equal to
its document string, hold everything that differs between the modes; the
rest of the package asks a problem's mode and never compares it.

The relation searches (`find_first_relation`, `relation_counts`) never
combine eigenvalue objects.  They share one plan, which maps every value
once per search to an exact integer key and folds keys: additive values
become (im, re) over their common denominator, multiplicative ones an
angle in Z / L plus the magnitude's exponent vector over a gcd-refined
coprime base, packed in base W = 2B + 1 where B bounds every digit of
every selection sum, so equal keys mean equal values.  The plan stops at
m = n // 2: in a consistent problem the complement of a relation at m is
a relation at n - m.  `find_first_relation` decides existence at each m
from sets of distinct keys, and rebuilds the first-seen witness tables
only at the m where the two sides meet; `relation_counts` folds counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress

from .exactnum import GR_ZERO, GaussianRational, format_rational, parse_rational
from .jnf_core import ClassSpec, JnfError, JnfShape

DEFAULT_RELATION_CAP = 10**8
# fresh denominators tried by generate_generic before it gives up
GENERATE_ATTEMPTS = 32
# the most primes generate_generic walks to reach a seed's offset
MAX_PRIME_WALK = 10**6
# integers per window of the segmented prime sieve `_primes_from`
_SIEVE_WIDTH = 1 << 13


class ProblemError(ValueError):
    pass


class RelationSearchCapError(ProblemError):
    """The exhaustive relation search would exceed the configured cap."""


class GenericAssignmentError(ProblemError):
    """No generic assignment exists, or generation failed within bounds."""


@dataclass(frozen=True)
class MultiplicativeEigenvalue:
    """magnitude * exp(2*pi*i*angle) with rational angle in [0,1) and
    positive rational magnitude."""

    angle: Fraction
    magnitude: Fraction = Fraction(1)

    def __post_init__(self):
        # parts are read as GaussianRational reads them (parse_rational
        # keeps a Fraction); an angle in [0, 1) is kept, read off numerators
        magnitude = parse_rational(self.magnitude)
        object.__setattr__(self, "magnitude", magnitude)
        if magnitude.numerator <= 0:
            raise ProblemError(f"magnitude must be positive, got {magnitude}")
        angle = parse_rational(self.angle)
        if not 0 <= angle.numerator < angle.denominator:
            angle %= 1
        object.__setattr__(self, "angle", angle)

    def format_parts(self) -> tuple[str, str]:
        """The angle and the magnitude as "p/q" (or "p") in lowest terms."""
        return format_rational(self.angle), format_rational(self.magnitude)

    def __str__(self):
        return f"e(2pi i {format_rational(self.angle)})*{format_rational(self.magnitude)}"


MULT_ONE = MultiplicativeEigenvalue(Fraction(0))


class _Mode(str):
    """A mode's document string with its facts: the value type, its document
    keys (required, optional, default) and the relation's neutral element;
    each other method is described where it is used."""

    __slots__ = ()

    def document(self, value) -> dict:
        """The document object of a value, such as {"re": "1/2", "im": "0"}."""
        key, other, _ = self.fields
        a, b = value.format_parts()
        return {key: a, other: b}


class _Additive(_Mode):
    """Sum zero in gl(n): Gaussian rationals, combined by sums."""

    value_type = GaussianRational
    neutral = GR_ZERO
    fields = ("re", "im", 0)
    hint = 'additive values use {"re": "p/q", "im": "p/q"}'
    invertible = False
    # a divisor g > 1 of every mu_s makes t_s = mu_s / g a relation
    gcd_forces_relation = True

    def combine(self, terms):
        return sum((v * k for v, k in terms), GR_ZERO)

    def key_parts(self, values):
        den = math.lcm(*(x.denominator for v in values for x in (v.im, v.re)))
        return 1, [0] * len(values), [(_scaled(v.im, den), _scaled(v.re, den)) for v in values]

    def absorbing(self, s: Fraction, mu: int) -> int:
        return 0

    def split(self, values):
        return [(v.re, v.im) for v in values]

    def certifies(self, k: Fraction, other, mults) -> bool:
        return not k and not other and reduce(math.gcd, mults) == 1

    def residual(self, matrices):
        return sum(matrices[1:], matrices[0])

    def outer_factors(self, matrices):
        return None

    def bound(self, eps: Fraction, steps) -> Fraction:
        return eps * eps * sum((rho for *_, rho in steps), Fraction(0))


class _Multiplicative(_Mode):
    """Product one in GL(n): angle/magnitude pairs, combined by products."""

    value_type = MultiplicativeEigenvalue
    neutral = MULT_ONE
    fields = ("angle", "magnitude", Fraction(1))
    hint = 'multiplicative values use {"angle": "p/q", "magnitude": "p/q"}'
    invertible = True
    gcd_forces_relation = False

    def combine(self, terms):
        # one Fraction per part, from integer sums and products
        den = math.lcm(*(v.angle.denominator for v, _ in terms))
        turns = sum(k * v.angle.numerator * (den // v.angle.denominator) for v, k in terms)
        up = math.prod(v.magnitude.numerator**k for v, k in terms)
        down = math.prod(v.magnitude.denominator**k for v, k in terms)
        return MultiplicativeEigenvalue(Fraction(turns % den, den), Fraction(up, down))

    def key_parts(self, values):
        modulus = math.lcm(*(v.angle.denominator for v in values))
        mags = [v.magnitude for v in values]
        base = _coprime_base({x for q in mags for x in (q.numerator, q.denominator)})
        digits = [
            [p - q for p, q in zip(_exponents(x.numerator, base), _exponents(x.denominator, base))]
            for x in mags
        ]
        return modulus, [_scaled(v.angle, modulus) for v in values], digits

    def absorbing(self, s: Fraction, mu: int) -> int:
        k = math.ceil(s)
        while math.gcd(k, mu) != 1 and k < math.ceil(s) + mu:
            k += 1
        return k

    def split(self, values):
        return [(v.angle, v.magnitude != 1) for v in values]

    def certifies(self, k: Fraction, other, mults) -> bool:
        return k.denominator == 1 and math.gcd(k.numerator, mults[-1]) == 1

    def residual(self, matrices):
        identity = type(matrices[0]).identity(matrices[0].nrows)
        return math.prod(matrices, start=identity) - identity

    def outer_factors(self, matrices):
        # d/d eps of the product: the j-th factor's change sits between the
        # product of the factors before it and the product of those after
        identity = type(matrices[0]).identity(matrices[0].nrows)
        prefix, suffix = [identity], [identity]
        for a, b in zip(matrices[:-1], reversed(matrices[1:])):
            prefix.append(prefix[-1] * a)
            suffix.append(b * suffix[-1])
        return tuple(zip(prefix, reversed(suffix)))

    def bound(self, eps: Fraction, steps) -> Fraction:
        a_norms = [na for _, _, _, na, _ in steps]
        terms = [(na, (d + (m * x - x * m)).norm_rowsum(), rho) for m, d, x, na, rho in steps]
        full = math.prod(a + eps * f + eps * eps * rho for a, f, rho in terms)
        linear = sum(
            f * math.prod(a_norms[:j] + a_norms[j + 1 :]) for j, (_, f, _) in enumerate(terms)
        )
        return full - math.prod(a_norms) - eps * linear


ADDITIVE = _Additive("additive")
MULTIPLICATIVE = _Multiplicative("multiplicative")
_MODES = {m: m for m in (ADDITIVE, MULTIPLICATIVE)}


def _mode_of(mode) -> _Mode | None:
    """The mode object equal to `mode`, or None (also for unhashables)."""
    return _MODES.get(mode) if isinstance(mode, str) else None


class TupleProblem:
    """A full problem instance: mode, size, and one class per puncture.

    Construction validates the document invariants: a known mode (stored
    as its mode object) and values of its type, every class of total size
    n, and distinct eigenvalues within a class (ClassSpec enforces that).
    """

    __slots__ = ("mode", "n", "classes")

    def __init__(self, mode: str, n: int, classes):
        classes = tuple(classes)
        known = _mode_of(mode)
        if known is None:
            raise ProblemError(f"unknown mode {mode!r}")
        if not classes:
            raise ProblemError("a problem needs at least one class")
        for j, c in enumerate(classes):
            if not isinstance(c, ClassSpec):
                raise ProblemError(f"class {j} is not a ClassSpec")
            if c.n != n:
                raise ProblemError(
                    f"class {j}: eigenvalue multiplicities sum to {c.n}, expected {n}"
                )
            for v in c.values:
                if not isinstance(v, known.value_type):
                    raise ProblemError(
                        f"class {j}: value {v!r} does not match mode {mode!r}"
                    )
        object.__setattr__(self, "mode", known)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", classes)

    def __setattr__(self, name, value):
        raise AttributeError("TupleProblem is immutable")

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def shapes(self) -> tuple[JnfShape, ...]:
        return tuple(c.shape for c in self.classes)

    def __eq__(self, other):
        return (
            isinstance(other, TupleProblem)
            and self.mode == other.mode
            and self.n == other.n
            and self.classes == other.classes
        )

    def __hash__(self):
        return hash((self.mode, self.n, self.classes))

    def __repr__(self):
        return f"TupleProblem({self.mode}, n={self.n}, {len(self.classes)} classes)"


def _combined_value(mode: _Mode, classes, counts) -> GaussianRational | MultiplicativeEigenvalue:
    """The sum of k * v (additive), respectively the product of v ** k
    (multiplicative), where class j's i-th eigenvalue v enters k =
    counts[j][i] times."""
    return mode.combine([(v, k) for c, t in zip(classes, counts) for v, k in zip(c.values, t)])


def check_consistency(problem: TupleProblem) -> bool:
    """Sum of all eigenvalues (with multiplicity) is zero, respectively the
    product is one."""
    counts = [c.shape.multiplicities() for c in problem.classes]
    return _combined_value(problem.mode, problem.classes, counts) == problem.mode.neutral


def _require_consistency(problem: TupleProblem) -> None:
    if not check_consistency(problem):
        raise ProblemError("inconsistent eigenvalue data: the total sum/product condition fails")


# -- non-genericity relations ------------------------------------------------


@dataclass(frozen=True)
class NonGenericityRelation:
    """A selection of m eigenvalue slots per class (with multiplicity,
    1 <= m < n) whose combined sum vanishes / product is the identity.

    `counts[j][k]` is how many copies of class j's k-th eigenvalue enter."""

    mode: str
    m: int
    counts: tuple[tuple[int, ...], ...]

    def verify(self, problem: TupleProblem) -> bool:
        if problem.mode != self.mode or len(self.counts) != problem.class_count:
            return False
        for c, t in zip(problem.classes, self.counts):
            if len(t) != len(c.values) or sum(t) != self.m:
                return False
            if any(
                cnt < 0 or cnt > c.shape.multiplicity(i) for i, cnt in enumerate(t)
            ):
                return False
        if not 1 <= self.m < problem.n:
            return False
        mode = problem.mode
        return _combined_value(mode, problem.classes, self.counts) == mode.neutral


@dataclass(frozen=True)
class GenericityResult:
    generic: bool
    witness: NonGenericityRelation | None = None

    def __bool__(self):
        return self.generic


def _selections(mults: tuple[int, ...], m: int, weights) -> list[tuple[tuple[int, ...], int]]:
    """(t, sum of t_i * weights[i]) for every count vector 0 <= t_i <=
    mults[i] with sum m, in lexicographic order of t."""
    tails = [0]
    for mu in reversed(mults[1:]):
        tails.append(tails[-1] + mu)
    level = [((), m, 0)]
    for mu, w, tail in zip(mults, weights, reversed(tails)):
        level = [
            (acc + (t,), rest - t, total + t * w)
            for acc, rest, total in level
            for t in range(max(0, rest - tail), min(mu, rest) + 1)
        ]
    return [(acc, total) for acc, _, total in level]


def _selection_counts(mults: tuple[int, ...], top: int) -> list[int]:
    """counts[m] = the number of count vectors 0 <= t_i <= mults[i] with
    sum m, for m = 0..top: the coefficients of prod_i (1 + x + ... +
    x^mults[i]) up to x^top.  Multiplying by one factor is a running sum
    of width mults[i] + 1."""
    counts = [1] + [0] * top
    for mu in mults:
        new, window = [], 0
        for s, c in enumerate(counts):
            window += c
            if s > mu:
                window -= counts[s - mu - 1]
            new.append(window)
        counts = new
    return counts


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which every number is a product
    of powers.  Gcd refinement only: a base element b meeting x with
    g = gcd(x, b) > 1 is replaced by g, b/g and x/g, which divides the
    product of all numbers held by g, so the loop ends without factoring."""
    base: list[int] = []
    pending = [x for x in numbers if x > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                pending.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def _exponents(x: int, base: list[int]) -> list[int]:
    out = []
    for b in base:
        e = 0
        while x % b == 0:
            x //= b
            e += 1
        out.append(e)
    return out


def _scaled(x: Fraction, den: int) -> int:
    return x.numerator * (den // x.denominator)


def _value_keys(problem: TupleProblem) -> tuple[list[list[int]], int, int]:
    """Exact integer keys of the eigenvalues, per class, with `half` and
    `wrap` of the key group Z / wrap.

    A value is a vector of integer digits plus an angle a in [0, L).
    Additive: digits (im, re) over the common denominator D, and L = 1.
    Multiplicative: digits are the magnitude's exponents over a coprime
    base of all numerators and denominators, and a = angle * L with L the
    lcm of the angle denominators.  The key is a * R + sum_i d_i * W**i
    with W = 2B + 1 and R = W**r, where B bounds every digit of every sum
    of selected values (counts within the multiplicities).  Balanced
    base-W digits in [-B, B] are unique, and only the angle wraps, so
    adding keys modulo wrap = L * R adds values, and two selections' keys
    are equal exactly when their values are.  Keys are represented in
    [-half, wrap - half) with half = (R - 1) / 2."""
    modulus, angles, digits = problem.mode.key_parts([v for c in problem.classes for v in c.values])
    weights = [mu for c in problem.classes for mu in c.shape.multiplicities()]
    width = len(digits[0])
    bound = max(
        (sum(mu * abs(d[i]) for mu, d in zip(weights, digits)) for i in range(width)),
        default=0,
    )
    w = 2 * bound + 1
    radix = w**width
    keys = iter(
        a * radix + sum(d_i * w**i for i, d_i in enumerate(d))
        for a, d in zip(angles, digits)
    )
    per_class = [[next(keys) for _ in c.values] for c in problem.classes]
    return per_class, radix // 2, modulus * radix


def _class_options(mults, keys, m: int, sign: int, half: int, wrap: int):
    """Each count vector of one class at cardinality m with the key of its
    combined value (sign = -1: of the inverse value)."""
    return [
        (t, (sign * total + half) % wrap - half)
        for t, total in _selections(mults, m, keys)
    ]


def _fold_classes(class_options, half: int, wrap: int) -> dict[int, tuple]:
    """Map: key of a combined value -> first-seen tuple of count vectors,
    folding the classes in order.  Deterministic because every enumeration
    is, and key equality is value equality, so the first-seen entries are
    those of a fold over the values themselves.  `find_first_relation`
    builds these tables only at the cardinality of its witness."""
    top = wrap - half - 1
    acc: dict[int, tuple] = {0: ()}
    for options in class_options:
        new_acc: dict[int, tuple] = {}
        for key, chosen in acc.items():
            for t, k in options:
                s = key + k
                if s > top:
                    s -= wrap
                if s not in new_acc:
                    new_acc[s] = chosen + (t,)
        acc = new_acc
    return acc


def _count_classes(class_options, half: int, wrap: int) -> dict[int, int]:
    """Map: key of a combined value -> number of tuples of count vectors
    with that value, folding the classes in order."""
    top = wrap - half - 1
    acc: dict[int, int] = {0: 1}
    for options in class_options:
        new_acc: dict[int, int] = {}
        for key, count in acc.items():
            for _, k in options:
                s = key + k
                if s > top:
                    s -= wrap
                new_acc[s] = new_acc.get(s, 0) + count
        acc = new_acc
    return acc


def _key_totals(mults, keys, wrap: int):
    """The distinct key totals of one class's count vectors with sum m,
    reduced mod wrap, for m = 1, 2, ... in turn.

    A dynamic program over the labels: rows[i][c] holds the totals of the
    count vectors over the first i labels with sum c, and row c of label i
    takes t <= min(mu_i, c) copies of key_i onto row c - t of label i - 1,
    which is empty unless c - t <= `before`, the multiplicities before
    label i: so a label costs O(mu_i) per row, not O(m).  Each step adds
    the row of one more m, so a search that stops early builds nothing
    for larger m.  Equal residues mean equal values: the residue of a
    total is the key of the selected values' combined value, and
    `_value_keys` makes those keys distinct mod wrap."""
    rows = [[{0}] for _ in range(len(mults) + 1)]
    labels = list(zip(mults, keys, accumulate(mults, initial=0)))
    m = 0
    while True:
        m += 1
        rows[0].append(set())
        for i, (mu, k, before) in enumerate(labels):
            below = rows[i]
            counts = range(max(0, m - before), min(mu, m) + 1)
            rows[i + 1].append({(x + t * k) % wrap for t in counts for x in below[m - t]})
        yield rows[-1][m]


def _key_sums(key_sets, wrap: int):
    """The residues mod wrap of every sum of one key per set (no sets is
    the empty sum, 0).  All but the last set are folded into a set of
    distinct residues, and the last step is a generator, so a consumer that
    stops at the first common key builds nothing more."""
    *head, last = key_sets or [{0}]
    acc = {0}
    for keys in head:
        acc = {(a + k) % wrap for a in acc for k in keys}
    return ((a + k) % wrap for a in acc for k in last)


def _cardinality_tables(problem: TupleProblem, keyed, cap: int):
    """The relation search plan: (m, split, tables) for m = 1..n // 2,
    each yielded after the cap check at m.

    A balanced split of the classes keeps the table sizes near the square
    root of the full selection count.  Classes j < split make the left
    table, which folds value keys (`keyed` = `_value_keys(problem)`, built
    once per search), the others the right one, which folds the keys of
    inverse values, so a relation is a key present in both.  tables(fold)
    builds both tables at m from `_class_options` with `fold`.  Only m <=
    n // 2 is searched: the problem is consistent, so the complement mult -
    t of a relation at m is a relation at n - m, and the selection count at
    m equals the one at n - m.  The cap therefore fires at the same m as a
    search over every m < n would.  Each class's selection counts for
    every m are computed once per search, by `_selection_counts`."""
    keys, half, wrap = keyed
    mults = [c.shape.multiplicities() for c in problem.classes]
    top = problem.n // 2
    counts = [_selection_counts(mu, top) for mu in mults]
    for m in range(1, top + 1):
        per_class = [c[m] for c in counts]
        total = math.prod(per_class)
        if total > cap:
            raise RelationSearchCapError(
                f"cardinality {m} needs {total} selections, cap is {cap}"
            )
        split = _balanced_split(per_class)

        def tables(fold, m=m, split=split):
            options = [
                _class_options(mu, k, m, 1 if j < split else -1, half, wrap)
                for j, (mu, k) in enumerate(zip(mults, keys))
            ]
            return fold(options[:split], half, wrap), fold(options[split:], half, wrap)

        yield m, split, tables


def find_first_relation(
    problem: TupleProblem, cap: int = DEFAULT_RELATION_CAP
) -> NonGenericityRelation | None:
    """Smallest-cardinality relation of a consistent problem, or None.  By
    the complement argument of `_cardinality_tables` it has m <= n // 2.

    Existence at m is decided on sets of distinct keys (`_key_totals`,
    the right side's negated, summed per side by `_key_sums`); only at the
    first m where the two sides meet are the first-seen tables of
    `_fold_classes` built, and the witness is the first key of the left
    one that the right one holds."""
    keys, _, wrap = keyed = _value_keys(problem)
    totals = [
        _key_totals(c.shape.multiplicities(), k, wrap) for c, k in zip(problem.classes, keys)
    ]
    for m, split, tables in _cardinality_tables(problem, keyed, cap):
        key_sets = [
            next(t) if j < split else {-x for x in next(t)}
            for j, t in enumerate(totals)
        ]
        if set(_key_sums(key_sets[:split], wrap)).isdisjoint(_key_sums(key_sets[split:], wrap)):
            continue
        left, right = tables(_fold_classes)
        key = next(k for k in left if k in right)
        return NonGenericityRelation(mode=problem.mode, m=m, counts=left[key] + right[key])
    return None


def relation_counts(
    problem: TupleProblem, cap: int = DEFAULT_RELATION_CAP
) -> dict[int, int]:
    """Number of relations of a consistent problem at each cardinality
    m = 1..n // 2; by complements the count at n - m is the same.  Same
    plan, cap and error as `find_first_relation`."""
    counts = dict.fromkeys(range(1, problem.n // 2 + 1), 0)
    for m, _, tables in _cardinality_tables(problem, _value_keys(problem), cap):
        left, right = tables(_count_classes)
        counts[m] = sum(c * right[k] for k, c in left.items() if k in right)
    return counts


def _balanced_split(per_class: list[int]) -> int:
    best, best_cost = 1, None
    for h in range(1, len(per_class) + 1):
        cost = max(math.prod(per_class[:h]), math.prod(per_class[h:]))
        if best_cost is None or cost < best_cost:
            best, best_cost = h, cost
    return best


def is_generic(
    problem: TupleProblem, cap: int = DEFAULT_RELATION_CAP
) -> GenericityResult:
    """Exhaustive search for a non-genericity relation.

    Requires the instance to be consistent (ProblemError otherwise).
    Raises RelationSearchCapError when the search space exceeds `cap` at
    some cardinality.
    """
    _require_consistency(problem)
    witness = find_first_relation(problem, cap=cap)
    if witness is None:
        return GenericityResult(generic=True)
    return GenericityResult(generic=False, witness=witness)


# -- generation ---------------------------------------------------------------


def _primes_upto(limit: int) -> list[int]:
    """The primes <= limit (>= 1), by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def _primes_from(start: int):
    """The primes >= start in increasing order, by a segmented sieve of
    Eratosthenes over the windows [w * W, (w + 1) * W) with W =
    _SIEVE_WIDTH.  Each window is crossed out by the primes up to the
    square root of its end, starting at p * p, so it holds O(W + sqrt(q))
    bytes near q: generation above n^2 never allocates O(n^2)."""
    start = max(2, start)
    lo = start - start % _SIEVE_WIDTH
    base_limit, base = 1, []
    while True:
        hi = lo + _SIEVE_WIDTH
        root = math.isqrt(hi - 1)
        if root > base_limit:
            base_limit = 2 * root
            base = _primes_upto(base_limit)
        flags = bytearray([1]) * _SIEVE_WIDTH
        skip = max(0, start - lo)
        flags[:skip] = bytes(skip)
        for p in base:
            if p > root:
                break
            first = max(p * p, -(-lo // p) * p) - lo
            flags[first::p] = bytes(len(range(first, _SIEVE_WIDTH, p)))
        yield from compress(range(lo, hi), flags)
        lo = hi


def generate_generic(
    shapes: tuple[JnfShape, ...],
    mode: str,
    seed: int = 0,
) -> TupleProblem:
    """Produce a consistent, certified-generic eigenvalue assignment.

    Strategy: all but one slot get values with large pairwise-distinct prime
    denominators, the last slot absorbs the consistency constraint, and
    `_certify_generic` proves the result generic from the assembled problem
    (a refused certificate is an internal error, never a silent retry).  The
    exhaustive search is left to user documents.  In additive mode no
    generic assignment exists when a common divisor > 1 divides every
    multiplicity; that is reported as an error.  Attempt a reads the
    primes from offset (seed + a) * slots on, so a seed whose last attempt
    would walk past MAX_PRIME_WALK primes is refused (ProblemError) before
    any prime is drawn.
    """
    shapes = tuple(shapes)
    if not shapes:
        raise ProblemError("need at least one shape")
    known = _mode_of(mode)
    if known is None:
        raise ProblemError(f"unknown mode {mode!r}")
    if seed < 0:
        raise ProblemError(f"seed must be a non-negative integer, got {seed}")
    n = shapes[0].n
    slots = [
        (j, l, s.multiplicity(l))
        for j, s in enumerate(shapes)
        for l in range(s.label_count)
    ]
    # the last attempt reads the primes up to offset (seed + attempts) * slots
    walk = (seed + GENERATE_ATTEMPTS) * len(slots) - 1
    if walk > MAX_PRIME_WALK:
        raise ProblemError(
            f"seed {seed} would walk up to {walk} primes, more than {MAX_PRIME_WALK}"
        )
    if known.gcd_forces_relation:
        g = reduce(math.gcd, (mu for _, _, mu in slots))
        if g > 1:
            raise GenericAssignmentError(
                f"all multiplicities share the divisor {g}; the total-sum "
                "constraint then forces a non-genericity relation"
            )

    prime_stream = _primes_from(n * n + 1)
    primes_pool: list[int] = []

    for attempt in range(GENERATE_ATTEMPTS):
        offset = (seed + attempt) * len(slots)
        end = offset + max(0, len(slots) - 1)
        # extended as attempts use it: the first attempt usually succeeds
        primes_pool.extend(next(prime_stream) for _ in range(end - len(primes_pool)))
        qs = primes_pool[offset:end]
        try:
            problem = _assemble_assignment(shapes, known, slots, qs)
        except (ProblemError, JnfError):
            # value collision inside a class; retry with fresh denominators
            continue
        if not check_consistency(problem):
            raise GenericAssignmentError("internal: generated assignment inconsistent")
        _certify_generic(problem)
        return problem
    raise GenericAssignmentError(
        f"no collision-free assignment found within {GENERATE_ATTEMPTS} attempts"
    )


def _certify_generic(problem: TupleProblem) -> None:
    """Prove a prime-denominator assignment generic, or raise
    GenericAssignmentError.

    Number the slots s (class, label) in order, with multiplicities mu_s
    and values v_s; "last" is the last slot.  Hypotheses, each checked
    exactly here:
      (a) every slot s but the last holds 1/q_s: additively as the value,
          multiplicatively as the angle, with magnitude 1;
      (b) the q_s are pairwise coprime and each is > n^2;
      (c) with k = mu_last * v_last + sum_s mu_s / q_s (v_last the last
          value, resp. its angle): additively k = 0 and the gcd of all
          multiplicities is 1; multiplicatively k is an integer with
          gcd(k, mu_last) = 1.

    Proof.  A relation at 0 < m < n takes t_s copies of slot s, 0 <= t_s <=
    mu_s, m per class, with sum_s t_s v_s = 0 (additively), resp. sum_s
    t_s angle_s = z in Z (multiplicatively; the angles alone already rule
    it out).  Substitute v_last = (k - sum_s mu_s / q_s) / mu_last and
    multiply by mu_last:

        sum_{s < last} c_s / q_s = N,  c_s = mu_last t_s - t_last mu_s,

    with N = -t_last k, resp. mu_last z - t_last k, an integer.  Multiply
    by Q = prod q_s: modulo q_s every other term vanishes and Q / q_s is a
    unit by (b), so q_s | c_s.  Both mu_last t_s and t_last mu_s lie in
    [0, n^2], so |c_s| <= n^2 < q_s and c_s = 0: t = (t_last / mu_last) mu,
    and as each class's multiplicities sum to n, m = n t_last / mu_last.
    Additively every t_s = m mu_s / n is an integer, so n / gcd(m, n) > 1
    divides every mu_s, against (c).  Multiplicatively c_s = 0 leaves N =
    0, so mu_last | t_last k, and gcd(k, mu_last) = 1 gives t_last in {0,
    mu_last}, that is m in {0, n}.  Either way no relation exists.
    """
    n, mode = problem.n, problem.mode
    mults = [mu for c in problem.classes for mu in c.shape.multiplicities()]
    values = [v for c in problem.classes for v in c.values]
    # per slot, the part that must be 1/q and what must vanish beside it
    *head, (part, other) = mode.split(values)
    total, seen = 0, 1  # sum_s mu_s / q_s = total / seen, summed unreduced
    for s, (p, o) in enumerate(head):
        q = p.denominator
        if o or p.numerator != 1:
            raise GenericAssignmentError(f"internal: slot value {values[s]} is not 1/q")
        if q <= n * n or math.gcd(q, seen) != 1:
            raise GenericAssignmentError(
                f"internal: denominator {q} is not > {n * n} and coprime to the others"
            )
        total, seen = total * q + mults[s] * seen, seen * q
    k = Fraction(total, seen) + part * mults[-1]
    if not mode.certifies(k, other, mults):
        raise GenericAssignmentError(
            f"internal: k = {format_rational(k)}, last value {values[-1]}, fails hypothesis (c)"
        )


def _assemble_assignment(shapes, mode, slots, qs) -> TupleProblem:
    """Slot s < last holds 1/q_s (the value, resp. the angle), the last one
    (k - sum_s mu_s / q_s) / mu_last with k = mode.absorbing(...): 0, resp.
    an integer coprime to mu_last if one is found within mu_last steps."""
    n = shapes[0].n
    values = [mode.value_type(Fraction(1, q)) for q in qs]
    s = sum((Fraction(mu, q) for (_, _, mu), q in zip(slots, qs)), Fraction(0))
    last_mu = slots[-1][2]
    values.append(mode.value_type((mode.absorbing(s, last_mu) - s) / last_mu))

    per_class: dict[int, list] = {}
    for (j, _, _), v in zip(slots, values):
        per_class.setdefault(j, []).append(v)
    classes = [
        ClassSpec(shape, per_class[j]) for j, shape in enumerate(shapes)
    ]
    return TupleProblem(mode, n, classes)
