"""Exact sampling of nilpotent orbits and vanishing tests on the samples.

Orbit points are produced by conjugating the Jordan matrix of a partition
by a seeded random integer matrix; all arithmetic is exact, so a nonzero
evaluation of a generator on a sample is a proof of non-vanishing, while
an all-zero result over the sampled points is evidence, not proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .minors import minor_sum_basis
from .partitions import Partition

SAMPLE_ENTRY_BOUND = 5
MAX_SAMPLE_ATTEMPTS = 1000


class OrbitSampleError(RuntimeError):
    """Sampling failed to produce a valid orbit point."""


class RationalMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a nonempty square matrix")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *_):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zero(cls, n: int) -> "RationalMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if r == c else 0 for c in range(n)] for r in range(n)])

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.entries]})"

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        cols = list(zip(*other.entries))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def power(self, k: int) -> "RationalMatrix":
        if k < 0:
            raise ValueError("negative power")
        out = RationalMatrix.identity(self.n)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def rank(self) -> int:
        """Exact rank by dense fraction-based elimination."""
        m = [list(row) for row in self.entries]
        n = self.n
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for r in range(n):
                if r != rank and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank

    def det_and_inverse(self):
        """(determinant, inverse) by Gauss-Jordan; inverse is None if singular."""
        n = self.n
        m = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(self.entries)]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0), None
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return det, RationalMatrix([row[n:] for row in m])

    def scaled_integer_entries(self) -> list[list[int]]:
        """Entries multiplied by the common denominator; for a homogeneous
        polynomial, vanishing here is equivalent to vanishing at the matrix."""
        scale = lcm(*(x.denominator for row in self.entries for x in row))
        return [[int(x * scale) for x in row] for row in self.entries]

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_strings(cls, rows) -> "RationalMatrix":
        return cls([[Fraction(x) for x in row] for row in rows])


def jordan_matrix(mu: Partition) -> RationalMatrix:
    """Block-diagonal nilpotent matrix with upper-shift blocks of the part sizes."""
    n = mu.n
    entries = [[0] * n for _ in range(n)]
    offset = 0
    for part in mu.parts:
        for k in range(part - 1):
            entries[offset + k][offset + k + 1] = 1
        offset += part
    return RationalMatrix(entries)


def kernel_dimensions(m: RationalMatrix, upto: int) -> list[int]:
    """dim ker(m^k) for k = 1..upto."""
    dims = []
    power = RationalMatrix.identity(m.n)
    for _ in range(upto):
        power = power * m
        dims.append(m.n - power.rank())
    return dims


@dataclass(frozen=True)
class OrbitSample:
    """One exact point of the orbit of a nilpotent Jordan type."""

    matrix: RationalMatrix
    jordan_type: Partition
    seed: int


@lru_cache(maxsize=16)
def sample_orbit(mu: Partition, seed: int) -> OrbitSample:
    """Conjugate the Jordan matrix by a seeded random integer matrix with
    entries in [-5, 5], resampled until invertible; the Jordan type of the
    result is verified exactly (kernel dimensions of all powers).

    Samples are immutable, so the few most recent are kept and shared: a
    vanishing sweep evaluates every family of one partition on the same
    (mu, seed) points."""
    n = mu.n
    rng = random.Random(seed)
    jordan = jordan_matrix(mu)
    conj = mu.conjugate()
    expected = [sum(conj.parts[:k]) for k in range(1, len(conj) + 1)]
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        g = RationalMatrix(
            [
                [rng.randint(-SAMPLE_ENTRY_BOUND, SAMPLE_ENTRY_BOUND) for _ in range(n)]
                for _ in range(n)
            ]
        )
        det, inverse = g.det_and_inverse()
        if det == 0:
            continue
        point = g * jordan * inverse
        if kernel_dimensions(point, len(conj)) != expected:
            raise OrbitSampleError(f"conjugate of {mu} has wrong kernel profile")
        return OrbitSample(matrix=point, jordan_type=mu, seed=seed)
    raise OrbitSampleError(f"no invertible conjugator found for {mu} (seed {seed})")


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of evaluating one generator family on orbit samples."""

    partition: Partition
    i: int
    p: int
    samples: int
    seed: int
    all_zero: bool
    witness: tuple[int, int] | None  # (element index, sample seed)

    def as_dict(self) -> dict:
        return {
            "partition": str(self.partition),
            "i": self.i,
            "p": self.p,
            "samples": self.samples,
            "seed": self.seed,
            "all_zero": self.all_zero,
            "witness": None
            if self.witness is None
            else {"element": self.witness[0], "sample_seed": self.witness[1]},
        }


def check_vanishing(
    mu: Partition, i: int, p: int, samples: int = 10, seed: int = 0
) -> VanishingReport:
    """Evaluate the depth-i size-p family basis on seeded orbit samples.

    For depths in the nonzero range the family vanishes on the whole orbit
    closure iff p >= critical_size(mu, i); finding a nonzero value is a
    proof of non-vanishing and is reported as a witness.
    """
    n = mu.n
    if i != 0 and not (1 <= i <= min(p, n - p)):
        raise ValueError(f"depth must be 0 or lie in 1..min({p},{n - p})")
    if samples < 1:
        raise ValueError("need at least one sample")
    basis = minor_sum_basis(n, i, p)
    for k in range(samples):
        sample_seed = seed + k
        point = sample_orbit(mu, sample_seed).matrix.scaled_integer_entries()
        for idx, poly in enumerate(basis):
            if poly.evaluate(point) != 0:
                return VanishingReport(mu, i, p, samples, seed, False, (idx, sample_seed))
    return VanishingReport(mu, i, p, samples, seed, True, None)
