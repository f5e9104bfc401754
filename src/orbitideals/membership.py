"""Graded ideal membership with exact certificates, and the end-to-end
minimality / redundancy verification for generator schedules.

Membership of a homogeneous f in a homogeneous ideal is decided entirely in
degree deg(f): the rows of the graded piece are all products g * m of a
generator with a monomial of complementary degree, and f is a member iff
its coefficient vector lies in their row span.

The diagonal torus scales x_rc by s_r / s_c, so a monomial has weight
sum e * (e_r - e_c) over its x_rc^e, and every prefixed minor sum
(P,J|Q,J) has the single weight e_P - e_Q.  When every generator is a weight
vector, the piece splits exactly into weight blocks, the rows g * m with
wt(g) + wt(m) = w, and f is a member iff each of its weight components lies
in its own block.  Blocks are enumerated directly and eliminated on first
use, so a query touches only the blocks its candidate meets.  A block is
eliminated with exact rational arithmetic unless it has more than
EXACT_NONZERO_LIMIT nonzeros; then the rank work is done modulo three random
31-bit primes, and a member verdict is only issued after an exact rational
back-solve of the modular solution.

Verdicts carry re-verifiable certificates: an exact coefficient combination
for members, and for non-members either a linear functional vanishing on
the whole graded piece but not on f, or an orbit point where the earlier
generators vanish and the candidate does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import TriangularBasis, apply_functional
from .minors import principal_minor_sum
from .orbit import sample_orbit
from .partitions import (
    Partition,
    excluded_depths,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
)
from .polyring import Polynomial, mon_weight, monomials_of_degree, monomials_of_weight, term_key
from .schur import layer_basis

MEMBER = "member"
NON_MEMBER = "non_member"
CONSISTENT_NON_MEMBER = "consistent_non_member"

EXACT_NONZERO_LIMIT = 100_000
PRIME_COUNT = 3

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def random_prime31(rng: random.Random) -> int:
    while True:
        candidate = rng.randrange(2**30, 2**31) | 1
        if _is_prime(candidate):
            return candidate


def _torus_weight(g: Polynomial) -> tuple | None:
    """The common torus weight of g's terms, or None if they differ."""
    weights = {mon_weight(g.n, mon) for mon in g.terms}
    return weights.pop() if len(weights) == 1 else None


def _mon_records(mon) -> list[list[int]]:
    return [[r, c, e] for (r, c), e in mon]


@dataclass(frozen=True)
class MembershipVerdict:
    """Membership decision together with its exact certificate."""

    status: str
    combination: tuple | None = None  # ((gen index, monomial, Fraction), ...)
    functional: tuple | None = None  # ((monomial, Fraction), ...)
    primes: tuple[int, ...] | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.combination is not None:
            out["combination"] = [
                {"gen": g, "monomial": _mon_records(m), "coeff": str(c)}
                for g, m, c in self.combination
            ]
        if self.functional is not None:
            out["functional"] = [
                {"monomial": _mon_records(m), "coeff": str(c)} for m, c in self.functional
            ]
        if self.primes is not None:
            out["primes"] = list(self.primes)
        if self.note is not None:
            out["note"] = self.note
        return out


class _Block:
    """One torus-weight block of a graded piece: its rows g * m in piece
    order, eliminated exactly, or modulo `primes` when any are given."""

    def __init__(self, rows, nonzeros: int, key, primes: tuple[int, ...]):
        self.rows = rows
        self.nonzeros = nonzeros
        self.key = key
        self.path = "modular" if primes else "exact"
        self._lift_basis = None
        if not primes:
            basis = TriangularBasis(key, track=True)
            for tag, terms in rows:
                basis.insert(terms, tag)
            self.basis = basis
        else:
            self._mod_bases = []
            self._selected: set | None = None
            for p in primes:
                b = TriangularBasis(key, prime=p)
                selected = set()
                for tag, terms in rows:
                    if b.insert(terms, None):
                        selected.add(tag)
                self._mod_bases.append(b)
                if self._selected is None:
                    self._selected = selected

    def lift(self) -> TriangularBasis:
        # exact elimination restricted to the rows independent mod the first
        # prime; independence mod p implies independence over Q
        if self._lift_basis is None:
            basis = TriangularBasis(self.key, track=True)
            for tag, terms in self.rows:
                if tag in self._selected:
                    basis.insert(terms, tag)
            self._lift_basis = basis
        return self._lift_basis

    def reduce(self, terms):
        """(basis, residual, combo) of an exact reduction of `terms`, or None
        when some prime already shows they lie outside the row span."""
        if self.path == "exact":
            return (self.basis, *self.basis.reduce(terms))
        for b in self._mod_bases:
            residual, _ = b.reduce(terms)
            if residual:
                return None
        lift = self.lift()
        return (lift, *lift.reduce(terms))


class GradedPiece:
    """The degree-d slice of the ideal generated by homogeneous polynomials,
    split into torus-weight blocks that are built and eliminated on first
    use.  Reusable across many membership queries against the same
    generators and degree.

    When every generator is torus-homogeneous, the rows g * m of weight w
    (those with wt(g) + wt(m) = w) span exactly the weight-w part of the
    piece, so a candidate is a member iff each of its weight components
    lies in its own block.  If some generator is not homogeneous, every
    monomial gets weight () and the one block is the whole piece.
    """

    def __init__(self, n: int, gens, degree: int, mode: str = "auto", seed: int = 0):
        if mode not in ("auto", "exact", "modular"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n = n
        self.degree = degree
        self.mode = mode
        self.seed = seed
        self.gens = tuple(gens)
        for g in self.gens:
            if g.n != n:
                raise ValueError("generator over wrong matrix size")
        self._row_gens = [
            (gi, g, _torus_weight(g))
            for gi, g in enumerate(self.gens)
            if not g.is_zero() and g.degree <= degree
        ]
        self._graded = all(w is not None for _, _, w in self._row_gens)
        self._blocks: dict[tuple, _Block] = {}
        self._key = lambda mon: term_key(n, mon)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        rng = random.Random(self.seed)
        return tuple(random_prime31(rng) for _ in range(PRIME_COUNT))

    def _weight(self, mon) -> tuple:
        """The block a monomial belongs to."""
        return mon_weight(self.n, mon) if self._graded else ()

    def _block_rows(self, w: tuple) -> list[tuple[tuple, dict]]:
        """The rows ((gen index, monomial), terms) of weight w, in the order
        of the whole piece: by generator, then descending multiplier."""
        rows = []
        for gi, g, gw in self._row_gens:
            k = self.degree - g.degree
            if self._graded:
                mons = monomials_of_weight(self.n, k, tuple(a - b for a, b in zip(w, gw)))
            else:
                mons = monomials_of_degree(self.n, k)
            for m in mons:
                rows.append(((gi, m), g.times_monomial(m).terms))
        return rows

    def _block(self, w: tuple) -> _Block:
        block = self._blocks.get(w)
        if block is None:
            rows = self._block_rows(w)
            nonzeros = sum(len(t) for _, t in rows)
            modular = self.mode == "modular" or (
                self.mode == "auto" and nonzeros > EXACT_NONZERO_LIMIT
            )
            block = _Block(rows, nonzeros, self._key, self.primes if modular else ())
            self._blocks[w] = block
        return block

    # Totals over the blocks built so far; a fresh piece has built none.

    @property
    def rows(self) -> list[tuple[tuple, dict]]:
        return [row for b in self._blocks.values() for row in b.rows]

    @property
    def nonzeros(self) -> int:
        return sum(b.nonzeros for b in self._blocks.values())

    @property
    def path(self) -> str:
        """The modular path when the mode forces it or some block built so
        far took it, else the exact path."""
        modular = self.mode == "modular" or any(
            b.path == "modular" for b in self._blocks.values()
        )
        return "modular" if modular else "exact"

    def contains(self, f: Polynomial) -> MembershipVerdict:
        if f.n != self.n:
            raise ValueError("candidate over wrong matrix size")
        if f.is_zero():
            return MembershipVerdict(MEMBER, combination=())
        if f.degree != self.degree:
            raise ValueError(f"candidate degree {f.degree} != piece degree {self.degree}")
        components: dict[tuple, dict] = {}
        for mon, c in f.terms.items():
            components.setdefault(self._weight(mon), {})[mon] = c
        combination = []
        free: dict = {}  # residual column of an exact block -> that block's basis
        modular = unresolved = False
        note = None
        for w, terms in components.items():
            block = self._block(w)
            modular = modular or block.path == "modular"
            reduced = block.reduce(terms)
            if reduced is None:
                unresolved = True
                continue
            basis, residual, combo = reduced
            if residual and block.path == "modular":
                unresolved, note = True, "exact lift failed"
            elif residual:
                free.update(dict.fromkeys(residual, basis))
            else:
                for (gi, mon), c in basis.provenance_of(combo).items():
                    if c:
                        combination.append((gi, mon, Fraction(c)))
        if free:
            lead = max(free, key=self._key)
            lam = free[lead].annihilator(lead)
            functional = tuple(sorted(lam.items(), key=lambda t: self._key(t[0]), reverse=True))
            return MembershipVerdict(NON_MEMBER, functional=functional)
        if unresolved:
            return MembershipVerdict(CONSISTENT_NON_MEMBER, primes=self.primes, note=note)
        combination.sort(key=lambda t: (t[0], self._key(t[1])))
        return MembershipVerdict(
            MEMBER, combination=tuple(combination), primes=self.primes if modular else None
        )

    def verify(self, f: Polynomial, verdict: MembershipVerdict) -> bool:
        """Re-check a verdict's certificate by independent exact arithmetic.

        A functional is checked against every row of each block its support
        meets, rebuilt from the generators; rows of other blocks share no
        monomial with it."""
        if verdict.status == MEMBER:
            acc: dict = {}
            for gi, mon, coeff in verdict.combination:
                for m2, c2 in self.gens[gi].times_monomial(mon).terms.items():
                    nv = acc.get(m2, 0) + coeff * c2
                    if nv:
                        acc[m2] = nv
                    else:
                        acc.pop(m2, None)
            return acc == {m: Fraction(c) for m, c in f.terms.items()}
        if verdict.status == NON_MEMBER:
            lam = dict(verdict.functional)
            if apply_functional(lam, f.terms) == 0:
                return False
            return all(
                apply_functional(lam, terms) == 0
                for w in {self._weight(m) for m in lam}
                for _, terms in self._block_rows(w)
            )
        return verdict.status == CONSISTENT_NON_MEMBER


def ideal_contains(
    f: Polynomial, gens, mode: str = "auto", seed: int = 0
) -> MembershipVerdict:
    """Decide whether f lies in the ideal generated by `gens`."""
    gens = tuple(gens)
    if f.is_zero():
        return MembershipVerdict(MEMBER, combination=())
    return GradedPiece(f.n, gens, f.degree, mode=mode, seed=seed).contains(f)


# -- schedule verification ---------------------------------------------------


def scheduled_generators(mu: Partition, before_depth: int | None = None):
    """The minimal-schedule generator polynomials, with labels.

    Returns (labels, polynomials): all invariants, then the layer bases of
    the scheduled minor spaces with depth < before_depth (all when None).
    """
    n = mu.n
    sched = minimal_schedule(mu)
    labels: list[str] = []
    gens: list[Polynomial] = []
    for p in sched.invariant_degrees:
        labels.append(f"t_{p}")
        gens.append(principal_minor_sum(n, p))
    for d in sched.minor_spaces:
        if before_depth is not None and d.i >= before_depth:
            continue
        for k, poly in enumerate(layer_basis(n, d.i, d.p)):
            labels.append(f"U_({d.i},{d.p})[{k}]")
            gens.append(poly)
    return labels, gens


@dataclass(frozen=True)
class RedundancyReport:
    """Oracle verification that an excluded depth is generated by the
    earlier scheduled generators."""

    partition: Partition
    i: int
    p: int
    zero_space: bool
    generator_labels: tuple[str, ...]
    verdicts: tuple[MembershipVerdict, ...]
    all_member: bool

    def as_dict(self) -> dict:
        return {
            "partition": str(self.partition),
            "i": self.i,
            "p": self.p,
            "zero_space": self.zero_space,
            "candidates": len(self.verdicts),
            "generators": list(self.generator_labels),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "all_member": self.all_member,
        }


def verify_redundant(
    mu: Partition, i: int, mode: str = "auto", seed: int = 0
) -> RedundancyReport:
    """Certify that the excluded depth-i space lies in the ideal of the
    invariants and the scheduled spaces of smaller depth."""
    if i not in excluded_depths(mu):
        raise ValueError(f"depth {i} is not excluded for {mu}")
    n = mu.n
    p = mu.critical_size(i)
    if minor_space_vanishes(n, i, p):
        return RedundancyReport(mu, i, p, True, (), (), True)
    labels, gens = scheduled_generators(mu, before_depth=i)
    candidates = layer_basis(n, i, p)
    piece = GradedPiece(n, gens, p, mode=mode, seed=seed)
    verdicts = tuple(piece.contains(c) for c in candidates)
    all_member = all(v.status == MEMBER for v in verdicts)
    return RedundancyReport(mu, i, p, False, tuple(labels), verdicts, all_member)


@dataclass(frozen=True)
class MinimalityCheck:
    """One verified claim of the minimality report."""

    kind: str  # "minor_space" | "invariant" | "excluded"
    i: int
    p: int
    expected: str
    status: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "i": self.i,
            "p": self.p,
            "expected": self.expected,
            "status": self.status,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MinimalityReport:
    partition: Partition
    n: int
    samples: int
    seed: int
    mode: str
    checks: tuple[MinimalityCheck, ...]
    ok: bool

    def as_dict(self) -> dict:
        return {
            "partition": str(self.partition),
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "mode": self.mode,
            "checks": [c.as_dict() for c in self.checks],
            "ok": self.ok,
        }


def _depth_one_witness(mu: Partition) -> Partition:
    """Orbit whose closure separates the depth-1 space from the invariants:
    any Jordan type with a longer first block, the hook being the smallest."""
    n = mu.n
    head = mu.parts[0] + 1
    return Partition((head,) + (1,) * (n - head))


def _point_certificate_check(
    mu: Partition, i: int, p: int, witness: Partition, samples: int, seed: int
) -> MinimalityCheck:
    """Search seeded samples of the witness orbit for a point where every
    earlier scheduled generator vanishes and some candidate does not."""
    n = mu.n
    _, earlier = scheduled_generators(mu, before_depth=i)
    candidates = layer_basis(n, i, p)
    for k in range(samples):
        sample_seed = seed + k
        point = sample_orbit(witness, sample_seed).matrix.scaled_integer_entries()
        bad = [gi for gi, g in enumerate(earlier) if g.evaluate(point) != 0]
        if bad:
            return MinimalityCheck(
                "minor_space",
                i,
                p,
                NON_MEMBER,
                "mismatch",
                False,
                {
                    "witness": str(witness),
                    "sample_seed": sample_seed,
                    "nonvanishing_generators": bad,
                },
            )
        for idx, cand in enumerate(candidates):
            if cand.evaluate(point) != 0:
                return MinimalityCheck(
                    "minor_space",
                    i,
                    p,
                    NON_MEMBER,
                    NON_MEMBER,
                    True,
                    {
                        "witness": str(witness),
                        "sample_seed": sample_seed,
                        "element": idx,
                        "point": point,
                    },
                )
    return MinimalityCheck(
        "minor_space",
        i,
        p,
        NON_MEMBER,
        "inconclusive",
        False,
        {"witness": str(witness), "samples": samples, "seed": seed},
    )


def verify_minor_space_certificate(mu: Partition, i: int, detail: dict) -> bool:
    """Re-verify a stored vanishing-point certificate exactly."""
    point = detail["point"]
    _, earlier = scheduled_generators(mu, before_depth=i)
    candidate = layer_basis(mu.n, i, mu.critical_size(i))[detail["element"]]
    if any(g.evaluate(point) != 0 for g in earlier):
        return False
    return candidate.evaluate(point) != 0


def verify_minimal(
    mu: Partition, samples: int = 10, seed: int = 0, mode: str = "auto"
) -> MinimalityReport:
    """Verify the minimal schedule end to end at desk scale.

    Scheduled minor spaces get vanishing-point non-membership certificates
    from witness orbits; invariants are checked against the remaining
    generators by the graded oracle; excluded depths are certified members.
    Inconclusive outcomes are reported, never silenced.
    """
    n = mu.n
    sched = minimal_schedule(mu)
    checks: list[MinimalityCheck] = []

    for d in sched.minor_spaces:
        witness = necessity_witness(mu, d.i) if d.i >= 2 else _depth_one_witness(mu)
        checks.append(_point_certificate_check(mu, d.i, d.p, witness, samples, seed))

    labels, gens = scheduled_generators(mu)
    for p in sched.invariant_degrees:
        others = [
            g for lbl, g in zip(labels, gens) if lbl != f"t_{p}"
        ]
        verdict = ideal_contains(principal_minor_sum(n, p), others, mode=mode, seed=seed)
        ok = verdict.status in (NON_MEMBER, CONSISTENT_NON_MEMBER)
        checks.append(
            MinimalityCheck(
                "invariant", 0, p, NON_MEMBER, verdict.status, ok, verdict.as_dict()
            )
        )

    for i in excluded_depths(mu):
        report = verify_redundant(mu, i, mode=mode, seed=seed)
        checks.append(
            MinimalityCheck(
                "excluded",
                i,
                report.p,
                MEMBER,
                MEMBER if report.all_member else "mismatch",
                report.all_member,
                {"zero_space": report.zero_space, "candidates": len(report.verdicts)},
            )
        )

    return MinimalityReport(
        mu, n, samples, seed, mode, tuple(checks), all(c.ok for c in checks)
    )
