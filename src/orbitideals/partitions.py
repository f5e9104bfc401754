"""Partitions, conjugates, and the generator schedules for orbit closures.

A partition mu of n records the Jordan block sizes of a nilpotent orbit.
The defining ideal of the orbit closure is generated by the conjugation
invariants of degree 1..mu_1 together with the prefixed-minor-sum spaces of
depth i and size mu.critical_size(i); the minimal schedule keeps exactly
those depths i >= 2 satisfying

    critical_size(i) < critical_size(i-1) + (critical_size(i-1) - 1) // (i - 1)

(depth 1 is always kept when its space is nonzero).  Witness partitions
certify both directions: necessity_witness(mu, i) is a partition whose
orbit closure separates the depth-i space from the earlier generators, and
redundancy_witness(mu, i) is the partition along which an excluded space is
generated by the earlier ones.
"""

from __future__ import annotations

import re


class Partition(tuple):
    """Non-increasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in parts):
            raise ValueError("parts must be positive integers")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError("parts must be non-increasing")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition({tuple(self)})"

    def __str__(self):
        return ",".join(map(str, self))

    def conjugate(self) -> "Partition":
        """Column lengths of the Young diagram: entry i counts parts >= i."""
        return Partition(sum(1 for v in self if v >= i) for i in range(1, self[0] + 1))

    def critical_size(self, i: int) -> int:
        """Smallest minor size at which the depth-i sums vanish on the
        closure: mu_1 + ... + mu_i - i + 1."""
        if not (1 <= i <= len(self)):
            raise ValueError(f"depth must lie in 1..{len(self)}")
        return sum(self[:i]) - i + 1


def parse_partition(text: str) -> Partition:
    """Parse "3,3,2" or the exponent shorthand "3^2,2": a part is ASCII
    digits, and an exponent is ASCII digits worth at least 1."""
    parts: list[int] = []
    for token in text.split(","):
        m = re.fullmatch(r"([0-9]+)(?:\^([0-9]+))?", token.strip())
        count = int(m[2] or 1) if m else 0
        if count < 1:
            raise ValueError(f"part {token.strip()!r} is not k or k^e with e >= 1")
        parts.extend([int(m[1])] * count)
    return Partition(parts)


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
#
# A schedule is the tuple of its generator layers (i, p) in generator
# order: the invariants t_p as depth 0, by increasing degree, then the
# minor spaces by increasing depth i >= 1, at non-decreasing sizes p.
# Layer (i, p) has dimension `schur.layer_dimension(n, i)`.


def minor_space_vanishes(n: int, i: int, p: int) -> bool:
    """The depth-i summand of the p-minor span is zero iff i > min(p, n-p)."""
    return i > min(p, n - p)


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


def _schedule(mu: Partition, n: int, minimal: bool) -> tuple[tuple[int, int], ...]:
    """The layers (0, p) for the invariant degrees p = n-|mu|+1 .. n-|mu|+mu_1,
    then (i, critical_size(i)) for every depth i whose space is nonzero in
    n x n matrices; when minimal, only the depths the admission rule admits."""
    shift = n - mu.n
    layers = [(0, p) for p in range(shift + 1, shift + mu[0] + 1)]
    for i in range(1, len(mu) + 1):
        p = mu.critical_size(i)
        if not minor_space_vanishes(n, i, p) and (not minimal or admits_minor_space(mu, i)):
            layers.append((i, p))
    return tuple(layers)


def full_schedule(mu: Partition) -> tuple[tuple[int, int], ...]:
    """The generating (generally redundant) schedule: all invariants up to
    mu_1, then every nonzero depth-i space at its critical size."""
    return _schedule(mu, mu.n, False)


def minimal_schedule(mu: Partition) -> tuple[tuple[int, int], ...]:
    """The minimal generator schedule."""
    return _schedule(mu, mu.n, True)


def rank_variety_schedule(mu: Partition, n: int) -> tuple[tuple[int, int], ...]:
    """The minimal schedule of mu (a partition of l <= n) read at ambient
    size n: invariants of degrees n-l+1 .. n-l+mu_1 and the literal
    unshifted critical sizes.  Unverified, and not minimal for n > l (t_3
    lies in the ideal of the 2 x 2 minors); nothing calls it, but
    perfbench/tracer.py wraps it by name until ROADMAP item 6 lands."""
    if mu.n > n:
        raise ValueError(f"partition total {mu.n} exceeds matrix size {n}")
    return _schedule(mu, n, True)


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
    parts.append(mu[i - 1] + 1)
    parts.extend(mu[i : s - 1])
    if mu[s - 1] - 1 > 0:
        parts.append(mu[s - 1] - 1)
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
    head = list(mu[: i - 1])
    rest = mu.n - sum(head)
    r, f = divmod(rest, mu[i - 1])
    parts = head + [mu[i - 1]] * r
    if f:
        parts.append(f)
    return Partition(parts)
