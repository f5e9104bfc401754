"""Partitions, conjugates, and the generator schedules for orbit closures.

A partition mu of n records the Jordan block sizes of a nilpotent orbit.
The defining ideal of the orbit closure is generated by the conjugation
invariants of degree 1..mu_1 together with the prefixed-minor-sum spaces of
depth i and size critical_size(mu, i); the minimal schedule keeps exactly
those depths i >= 2 satisfying

    critical_size(i) < critical_size(i-1) + (critical_size(i-1) - 1) // (i - 1)

(depth 1 is always kept when its space is nonzero).  Witness partitions
certify both directions: necessity_witness(mu, i) is a partition whose
orbit closure separates the depth-i space from the earlier generators, and
redundancy_witness(mu, i) is the partition along which an excluded space is
generated by the earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schur import layer_dimension

INVARIANT = "invariant"
MINOR_SPACE = "minor_space"


class Partition:
    """Non-increasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        if any(not isinstance(v, int) or v < 1 for v in parts):
            raise ValueError("parts must be positive integers")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError("parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *_):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return format_partition(self)

    def conjugate(self) -> "Partition":
        """Column lengths of the Young diagram: entry i counts parts >= i."""
        return Partition(
            tuple(sum(1 for v in self.parts if v >= i) for i in range(1, self.parts[0] + 1))
        )

    def critical_size(self, i: int) -> int:
        """Smallest minor size at which the depth-i sums vanish on the
        closure: parts[0] + ... + parts[i-1] - i + 1."""
        if not (1 <= i <= len(self.parts)):
            raise ValueError(f"depth must lie in 1..{len(self.parts)}")
        return sum(self.parts[:i]) - i + 1


def conjugate(mu: Partition) -> Partition:
    return mu.conjugate()


def critical_size(mu: Partition, i: int) -> int:
    return mu.critical_size(i)


def parse_partition(text: str) -> Partition:
    """Parse "3,3,2" or the exponent shorthand "3^2,2"."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty part in partition string")
        if "^" in token:
            base, _, exp = token.partition("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(token))
    return Partition(parts)


def format_partition(mu: Partition, exponents: bool = False) -> str:
    if not exponents:
        return ",".join(str(v) for v in mu.parts)
    out = []
    k = 0
    while k < len(mu.parts):
        j = k
        while j < len(mu.parts) and mu.parts[j] == mu.parts[k]:
            j += 1
        out.append(str(mu.parts[k]) if j - k == 1 else f"{mu.parts[k]}^{j - k}")
        k = j
    return ",".join(out)


def partitions_of(n: int):
    """All partitions of n in descending lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(n, n):
        yield Partition(parts)


# -- generator schedules ---------------------------------------------------


@dataclass(frozen=True)
class GeneratorDescriptor:
    """One generator family: an invariant (i = 0) or a minor-sum space."""

    kind: str
    i: int
    p: int
    degree: int
    dimension: int

    def __post_init__(self):
        if (self.kind == INVARIANT) != (self.i == 0):
            raise ValueError("invariants are exactly the depth-0 families")
        if self.kind == INVARIANT and self.dimension != 1:
            raise ValueError("invariants are one-dimensional")
        if self.degree != self.p or self.p < 1:
            raise ValueError("degree must equal the minor size")


@dataclass(frozen=True)
class Schedule:
    """Generator schedule: invariant degrees plus minor-space descriptors."""

    partition: Partition
    n: int
    invariant_degrees: tuple[int, ...]
    minor_spaces: tuple[GeneratorDescriptor, ...]

    def __post_init__(self):
        for a, b in zip(self.minor_spaces, self.minor_spaces[1:]):
            if not (a.i < b.i and a.p <= b.p):
                raise ValueError("minor spaces must increase in depth, sizes non-decreasing")

    def minor_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((d.i, d.p) for d in self.minor_spaces)


def minor_space_vanishes(n: int, i: int, p: int) -> bool:
    """The depth-i summand of the p-minor span is zero iff i > min(p, n-p)."""
    return i > min(p, n - p)


def _minor_descriptor(n: int, i: int, p: int) -> GeneratorDescriptor:
    return GeneratorDescriptor(
        kind=MINOR_SPACE, i=i, p=p, degree=p, dimension=layer_dimension(n, i)
    )


def full_schedule(mu: Partition) -> Schedule:
    """The generating (generally redundant) schedule: every nonzero
    depth-i space at its critical size, plus all invariants up to mu_1."""
    n = mu.n
    spaces = []
    for i in range(1, len(mu) + 1):
        p = mu.critical_size(i)
        if not minor_space_vanishes(n, i, p):
            spaces.append(_minor_descriptor(n, i, p))
    return Schedule(mu, n, tuple(range(1, mu.parts[0] + 1)), tuple(spaces))


def admits_minor_space(mu: Partition, i: int) -> bool:
    """Minimal-schedule admission rule for depth i (ignores the zero test).

    Depth 1 is admitted unconditionally; depth i >= 2 iff
    critical_size(i) < critical_size(i-1) + (critical_size(i-1)-1)//(i-1).
    """
    if not (1 <= i <= len(mu)):
        raise ValueError(f"depth must lie in 1..{len(mu)}")
    if i == 1:
        return True
    prev = mu.critical_size(i - 1)
    return mu.critical_size(i) < prev + (prev - 1) // (i - 1)


def minimal_schedule(mu: Partition) -> Schedule:
    """The minimal generator schedule."""
    n = mu.n
    spaces = []
    for i in range(1, len(mu) + 1):
        p = mu.critical_size(i)
        if minor_space_vanishes(n, i, p):
            continue
        if admits_minor_space(mu, i):
            spaces.append(_minor_descriptor(n, i, p))
    return Schedule(mu, n, tuple(range(1, mu.parts[0] + 1)), tuple(spaces))


def excluded_depths(mu: Partition) -> tuple[int, ...]:
    """Depths i >= 2 failing the admission rule (redundant at their size)."""
    return tuple(
        i for i in range(2, len(mu) + 1) if not admits_minor_space(mu, i)
    )


def necessity_witness(mu: Partition, i: int) -> Partition:
    """Partition whose orbit closure separates the scheduled depth-i space
    from the earlier generators (depth i >= 2 only).

    With e = (c-1) // (i-1) and f = c-1 - e*(i-1) for c = critical_size(i-1),
    the witness is (e+2 repeated f, e+1 repeated i-1-f, mu_i + 1,
    mu_{i+1}, ..., mu_{s-1}, mu_s - 1), dropping a trailing zero.
    """
    s = len(mu)
    if i < 2:
        raise ValueError("necessity witnesses exist for depth >= 2 only")
    if i > s:
        raise ValueError(f"depth must lie in 2..{s}")
    p = mu.critical_size(i)
    if minor_space_vanishes(mu.n, i, p):
        raise ValueError(f"depth {i} space is zero for {mu}")
    if not admits_minor_space(mu, i):
        raise ValueError(f"depth {i} is not in the minimal schedule of {mu}")
    c = mu.critical_size(i - 1)
    e = (c - 1) // (i - 1)
    f = c - 1 - e * (i - 1)
    parts = [e + 2] * f + [e + 1] * (i - 1 - f)
    parts.append(mu.parts[i - 1] + 1)
    parts.extend(mu.parts[i : s - 1])
    if mu.parts[s - 1] - 1 > 0:
        parts.append(mu.parts[s - 1] - 1)
    witness = Partition(parts)
    # postconditions guaranteed by the admission rule; checked defensively
    if witness.n != mu.n:
        raise RuntimeError(f"witness of {mu} at depth {i} does not preserve n")
    for j in range(1, i):
        if j <= len(witness) and witness.critical_size(j) > mu.critical_size(j):
            raise RuntimeError(f"witness critical size exceeds original at depth {j}")
    if witness.critical_size(i) <= p:
        raise RuntimeError(f"witness does not separate depth {i}")
    return witness


def redundancy_witness(mu: Partition, i: int) -> Partition:
    """Partition along which an excluded depth-i space is generated by the
    earlier generators: (mu_1, ..., mu_{i-1}, mu_i repeated r, f) with
    n = mu_1 + ... + mu_{i-1} + r*mu_i + f and 0 <= f <= mu_i - 1."""
    s = len(mu)
    if not (2 <= i <= s):
        raise ValueError(f"depth must lie in 2..{s}")
    if admits_minor_space(mu, i):
        raise ValueError(f"depth {i} is in the minimal schedule of {mu}")
    head = list(mu.parts[: i - 1])
    rest = mu.n - sum(head)
    r, f = divmod(rest, mu.parts[i - 1])
    parts = head + [mu.parts[i - 1]] * r
    if f:
        parts.append(f)
    return Partition(parts)


def rank_variety_schedule(mu: Partition, n: int) -> Schedule:
    """Schedule for the rank variety of mu (a partition of l <= n) inside
    n x n matrices: invariants of degrees n-l+1 .. n-l+mu_1, and the minor
    spaces passing the admission rule, read literally with unshifted
    critical sizes (flagged as literal in CLI output)."""
    l = mu.n
    if l > n:
        raise ValueError(f"partition total {l} exceeds matrix size {n}")
    spaces = []
    for i in range(1, len(mu) + 1):
        p = mu.critical_size(i)
        if minor_space_vanishes(n, i, p):
            continue
        if admits_minor_space(mu, i):
            spaces.append(_minor_descriptor(n, i, p))
    return Schedule(
        mu, n, tuple(range(n - l + 1, n - l + mu.parts[0] + 1)), tuple(spaces)
    )
