"""Partition and Jordan-shape algebra.

A Jordan shape is the eigenvalue-free skeleton of a conjugacy class of
square matrices: an ordered family of block-size partitions, one per
distinct eigenvalue label.  This module provides the two class invariants
used throughout (the orbit dimension d and the minimal shifted rank r),
rank sequences of shifted powers, and the orbit-closure (subordination)
partial order on classes with attached eigenvalues.

Partitions and shapes are immutable, so their size, block count and
centralizer dimension are computed once, at construction, and stored;
d and r read them without rebuilding anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class JnfError(ValueError):
    pass


class Partition:
    """Weakly decreasing tuple of positive integers.

    Zeros are dropped and parts sorted on construction; an empty result is
    rejected, so every Partition has positive size.  `size` and
    `centralizer_dimension` are fixed at construction.

    `centralizer_dimension` is the sum of c^2 over the conjugate parts c,
    the commutant dimension of one eigenvalue's Jordan blocks, and it
    equals sum_i (2i - 1) * parts[i - 1] (i from 1 over the descending
    parts): c_k = #{i : parts_i >= k}, so sum_k c_k^2 = sum over pairs
    (i, j) of min(parts_i, parts_j) = parts_max(i, j), and 2i - 1 pairs
    have max(i, j) = i.
    """

    __slots__ = ("parts", "size", "centralizer_dimension")

    def __init__(self, parts: Iterable[int]):
        cleaned = []
        size = 0
        for p in parts:
            if not isinstance(p, int):
                raise JnfError(f"partition part {p!r} is not an integer")
            if p < 0:
                raise JnfError(f"partition part {p} is negative")
            if p > 0:
                cleaned.append(p)
                size += p
        if not cleaned:
            raise JnfError("partition must have at least one positive part")
        cleaned.sort(reverse=True)
        centralizer, weight = 0, 1  # weight 2i - 1 at the i-th part
        for p in cleaned:
            centralizer += weight * p
            weight += 2
        object.__setattr__(self, "parts", tuple(cleaned))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "centralizer_dimension", centralizer)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def largest(self) -> int:
        return self.parts[0]

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        return Partition(
            sum(1 for p in self.parts if p >= k) for k in range(1, self.largest + 1)
        )

    def dominates(self, other: "Partition") -> bool:
        """Partial-sum domination; both partitions must have equal size."""
        if self.size != other.size:
            raise JnfError("dominance compares partitions of equal size")
        acc_self = acc_other = 0
        for k in range(max(len(self), len(other))):
            acc_self += self.parts[k] if k < len(self) else 0
            acc_other += other.parts[k] if k < len(other) else 0
            if acc_self < acc_other:
                return False
        return True


def partitions_of(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of `total` in descending lexicographic order."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


class JnfShape:
    """Jordan shape: one block-size partition per distinct-eigenvalue label.

    Label order is the canonical order used for every tie-break downstream;
    it is preserved exactly as given.  `n`, `max_block_count` and
    `centralizer_dimension` (the commutant dimension of a matrix realizing
    the shape, summed over the labels) are fixed at construction.
    """

    __slots__ = ("blocks", "n", "max_block_count", "centralizer_dimension")

    def __init__(self, blocks: Iterable[Partition]):
        blocks = tuple(blocks)
        if not blocks:
            raise JnfError("shape needs at least one eigenvalue label")
        n = top = centralizer = 0
        for b in blocks:
            if not isinstance(b, Partition):
                raise JnfError(f"shape entries must be Partition, got {b!r}")
            n += b.size
            if len(b.parts) > top:
                top = len(b.parts)
            centralizer += b.centralizer_dimension
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_block_count", top)
        object.__setattr__(self, "centralizer_dimension", centralizer)

    def __setattr__(self, name, value):
        raise AttributeError("JnfShape is immutable")

    @classmethod
    def of(cls, *block_lists: Iterable[int]) -> "JnfShape":
        return cls(Partition(b) for b in block_lists)

    @property
    def label_count(self) -> int:
        return len(self.blocks)

    def multiplicity(self, label: int) -> int:
        return self.blocks[label].size

    def block_count(self, label: int) -> int:
        return len(self.blocks[label])

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.blocks)

    def as_lists(self) -> list[list[int]]:
        return [list(p.parts) for p in self.blocks]

    def __eq__(self, other):
        return isinstance(other, JnfShape) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ",".join("{" + ",".join(str(x) for x in p) + "}" for p in self.blocks)
        return "{" + inner + "}"


@dataclass(frozen=True)
class RankSequence:
    """Ranks of the shifted matrix powers at one eigenvalue label.

    values[k-1] = rank((Y - lambda I)^k) for k = 1..largest block; the
    sequence is weakly decreasing and its last entry equals the stable
    value n - multiplicity(lambda).
    """

    values: tuple[int, ...]
    stable: int

    def value_at(self, k: int) -> int:
        if k < 1:
            raise JnfError("rank sequence is indexed from k = 1")
        if k <= len(self.values):
            return self.values[k - 1]
        return self.stable


def rank_sequence(shape: JnfShape, label: int) -> RankSequence:
    """Rank sequence of (Y - lambda I)^k for the given label of the shape.

    Blocks at other labels stay full-rank under the shift, so
    rank_k = n - sum_i min(b_i, k) over the label's own blocks.
    """
    if not 0 <= label < shape.label_count:
        raise JnfError(f"shape has no eigenvalue label {label}")
    n = shape.n
    parts = shape.blocks[label]
    values = tuple(n - sum(min(b, k) for b in parts) for k in range(1, parts.largest + 1))
    stable = n - parts.size
    return RankSequence(values=values, stable=stable)


def r_of(shape: JnfShape) -> int:
    """min over eigenvalues of rank(Y - lambda I): n minus the maximal block count."""
    return shape.n - shape.max_block_count


def d_of(shape: JnfShape) -> int:
    """Dimension of the conjugacy class: n^2 minus the commutant dimension."""
    n = shape.n
    return n * n - shape.centralizer_dimension


class ClassSpec:
    """Jordan shape together with one exact eigenvalue per label.

    Values are opaque here: they only need decidable equality and hashing.
    Additive problems use GaussianRational values, multiplicative ones use
    angle/magnitude pairs.
    """

    __slots__ = ("shape", "values")

    def __init__(self, shape: JnfShape, values: Iterable):
        values = tuple(values)
        if len(values) != shape.label_count:
            raise JnfError(
                f"{shape.label_count} eigenvalue labels but {len(values)} values"
            )
        if len(set(values)) != len(values):
            raise JnfError("duplicate eigenvalue within one class")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("ClassSpec is immutable")

    @property
    def n(self) -> int:
        return self.shape.n

    def label_of(self, value) -> int | None:
        for i, v in enumerate(self.values):
            if v == value:
                return i
        return None

    def __eq__(self, other):
        return (
            isinstance(other, ClassSpec)
            and self.shape == other.shape
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.shape, self.values))

    def __repr__(self):
        pairs = ", ".join(f"{v}:{p.parts}" for v, p in zip(self.values, self.shape.blocks))
        return f"ClassSpec({pairs})"


@dataclass(frozen=True)
class SubordinationResult:
    """Outcome of an orbit-closure comparison.

    `strict` lists (upper label index, power k) pairs where the rank
    inequality is strict; `proper` means the classes differ.
    """

    holds: bool
    reason: str | None = None
    strict: tuple[tuple[int, int], ...] = ()

    @property
    def proper(self) -> bool:
        return self.holds and bool(self.strict)

    def __bool__(self) -> bool:
        return self.holds


def is_subordinate(lower: ClassSpec, upper: ClassSpec) -> SubordinationResult:
    """Does `lower` lie in the closure of the orbit of `upper`?

    Requires identical eigenvalues with identical multiplicities and,
    for every eigenvalue and every power k, rank_upper(k) >= rank_lower(k).
    """
    if lower.n != upper.n:
        return SubordinationResult(False, reason=f"sizes differ: {lower.n} vs {upper.n}")
    if upper.shape.label_count != lower.shape.label_count:
        return SubordinationResult(False, reason="different numbers of distinct eigenvalues")
    strict: list[tuple[int, int]] = []
    for iu, value in enumerate(upper.values):
        il = lower.label_of(value)
        if il is None:
            return SubordinationResult(False, reason=f"eigenvalue {value} missing below")
        if upper.shape.multiplicity(iu) != lower.shape.multiplicity(il):
            return SubordinationResult(
                False, reason=f"multiplicity mismatch at eigenvalue {value}"
            )
        seq_u = rank_sequence(upper.shape, iu)
        seq_l = rank_sequence(lower.shape, il)
        for k in range(1, max(len(seq_u.values), len(seq_l.values)) + 1):
            ru, rl = seq_u.value_at(k), seq_l.value_at(k)
            if ru < rl:
                return SubordinationResult(
                    False,
                    reason=f"rank((Y-{value})^{k}) would rise: {ru} < {rl}",
                )
            if ru > rl:
                strict.append((iu, k))
    return SubordinationResult(True, strict=tuple(strict))
