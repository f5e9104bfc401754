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
in its own block.  Blocks are enumerated directly and eliminated over Q on
first use, so a query touches only the blocks its candidate meets.

Verdicts carry re-verifiable certificates: an exact coefficient combination
for members, and for non-members either a linear functional vanishing on
the whole graded piece but not on f, or a Jordan matrix where the earlier
generators vanish and the candidate does not.  Evaluation at a point is a
ring map, so such a candidate lies outside the ideal; the point is fixed by
the witness partition, and nothing is sampled.

A non-member functional may live on the diagonal slice alone.  Setting
x_rc = 0 for r != c is a ring map rho, so f in (g_1..g_k) implies
rho(f) in (rho(g_1)..rho(g_k)).  A functional on the diagonal monomials of
degree d that vanishes on every rho(g) * m (m diagonal) but not on rho(f)
therefore proves f outside the ideal.  Read on all monomials it is zero off
the diagonal, so its value at any h is its value at rho(h), and since
rho(g * m) = rho(g) * rho(m), with rho(m) a diagonal monomial or 0, it
vanishes on the whole graded piece: it is an ordinary functional
certificate.  The converse fails, so the slice never answers `member`.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import TriangularBasis, apply_functional
from .orbit import jordan_matrix, prefixed_sum_at_jordan
from .partitions import (
    Partition,
    excluded_depths,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
)
from .polyring import (
    Polynomial,
    key_header,
    mon_from_record,
    mon_to_record,
    mon_weight,
    monomials_of_degree,
    monomials_of_weight,
    pack,
    term_key,
    unpack,
)
from .schur import layer_basis, layer_tags

MEMBER = "member"
NON_MEMBER = "non_member"


def _torus_weight(g: Polynomial) -> tuple | None:
    """The common torus weight of g's terms, or None if they differ."""
    weights = {mon_weight(g.n, mon) for mon in g.terms}
    return weights.pop() if len(weights) == 1 else None


def _is_diagonal(mon) -> bool:
    return all(r == c for (r, c), _ in mon)


def _restrict(g: Polynomial) -> Polynomial:
    """rho(g): the terms of g whose monomials use only the x_rr."""
    return Polynomial(g.n, {mon: c for mon, c in g.terms.items() if _is_diagonal(mon)})


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

    With `diagonal=True` the piece is the diagonal slice: its rows are
    rho(g) * m for diagonal monomials m, all in the weight-0 block, and a
    candidate is replaced by rho(f).  The slice proves non-membership only
    (see the module docstring), so it tracks no provenance and `contains`
    gives None where the full piece might say `member`.

    Rows are eliminated on int columns, the term keys of their monomials
    (`polyring.term_key`).  In degree d the key of t * m is the key of t at
    the digit width of d plus `pack(n, m, d)`, with no carry, so each
    generator is packed once per piece and a row is built by int addition.
    The slice negates every column: the pivot is the largest column, and
    the reversed canonical order cuts the time of t_7 at n = 7 by more than
    half.  Only the columns of a non-member functional are decoded.
    """

    path = "exact"  # read by perfbench/layers.py until ROADMAP item 6 lands

    def __init__(self, n: int, gens, degree: int, diagonal: bool = False):
        self.n = n
        self.degree = degree
        self.gens: tuple = ()
        self.diagonal = diagonal
        self._sign = -1 if diagonal else 1
        # (gen index, row generator, torus weight, packed columns)
        self._row_gens: list[tuple] = []
        self._graded = True
        # multipliers are drawn from these variables (None: all of them)
        self._variables = [(r, r) for r in range(1, n + 1)] if diagonal else None
        # weight -> exact row-reduced basis of its rows, with provenance
        # outside the slice, and the number of row generators it holds
        self._blocks: dict[tuple, TriangularBasis] = {}
        self._held: dict[tuple, int] = {}
        # totals over the blocks built so far; a fresh piece has built none
        self.rows: list[tuple] = []  # (gen index, multiplier) of every row
        self.nonzeros = 0
        self._multipliers: dict[tuple, list] = {}  # (degree, weight) -> [(monomial, offset)]
        self.add(gens)

    def add(self, gens) -> None:
        """Append generators.  A block built before takes their rows the
        next time it is used, after its own and in the order of a piece
        built with all the generators at once, so its kept rows and its
        certificates are those of that piece.  A generator that is not a
        torus weight vector merges every block into one, so the blocks
        built so far are dropped."""
        gens = tuple(gens)
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator over wrong matrix size")
        start = len(self.gens)
        self.gens += gens
        head = key_header(self.n, self.degree)
        for gi, g in enumerate(gens, start):
            if g.is_zero() or g.degree > self.degree:
                continue
            if self.diagonal and (g := _restrict(g)).is_zero():
                continue
            w = _torus_weight(g)
            if w is None and self._graded:
                self._graded = False
                self._blocks.clear()
                self._held.clear()
                self.rows, self.nonzeros = [], 0
            packed = {self._sign * (head + pack(self.n, t, self.degree)): c for t, c in g.terms.items()}
            self._row_gens.append((gi, g, w, packed))

    def _weight(self, mon) -> tuple:
        """The block a monomial belongs to."""
        return mon_weight(self.n, mon) if self._graded else ()

    def _block_multipliers(self, w: tuple, start: int = 0):
        """(gen index, row generator, its columns, [(multiplier, column
        offset)]) of the rows of weight w, in the order of the whole piece:
        by generator, then descending multiplier; from the `start`-th row
        generator on."""
        for gi, g, gw, packed in self._row_gens[start:]:
            k = self.degree - g.degree
            mw = tuple(a - b for a, b in zip(w, gw)) if self._graded else ()
            mons = self._multipliers.get((k, mw))
            if mons is None:
                if self._graded and not self.diagonal:
                    mons = monomials_of_weight(self.n, k, mw)
                else:
                    mons = monomials_of_degree(self.n, k, self._variables)
                mons = self._multipliers[(k, mw)] = [(m, self._sign * pack(self.n, m, self.degree)) for m in mons]
            yield gi, g, packed, mons

    def _block(self, w: tuple) -> TriangularBasis:
        basis = self._blocks.get(w)
        if basis is None:
            basis = self._blocks[w] = TriangularBasis(track=not self.diagonal)
        for gi, _, packed, mons in self._block_multipliers(w, self._held.get(w, 0)):
            for m, off in mons:
                tag = (gi, m)
                basis.insert({k + off: c for k, c in packed.items()}, tag)
                self.rows.append(tag)
            self.nonzeros += len(packed) * len(mons)
        self._held[w] = len(self._row_gens)
        return basis

    def contains(self, f: Polynomial) -> dict | None:
        """The verdict on f, or None from a slice where rho(f) is a member.
        A verdict is the dict a report prints: `status`, then a member's
        `combination` [{gen, monomial, coeff}] or a non-member's `functional`
        [{monomial, coeff}], and `slice: "diagonal"` for one found there."""
        if f.n != self.n:
            raise ValueError("candidate over wrong matrix size")
        if not f.is_zero() and f.degree != self.degree:
            raise ValueError(f"candidate degree {f.degree} != piece degree {self.degree}")
        if self.diagonal:
            f = _restrict(f)
        if f.is_zero():
            return None if self.diagonal else {"status": MEMBER, "combination": []}
        components: dict[tuple, dict] = {}
        for mon, c in f.terms.items():
            components.setdefault(self._weight(mon), {})[self._sign * term_key(self.n, mon)] = c
        combination = []
        free: dict = {}  # residual column -> the basis of its block
        for w, terms in components.items():
            basis = self._block(w)
            residual, combo = basis.reduce(terms)
            if residual:
                free.update(dict.fromkeys(residual, basis))
            elif basis.track:
                combination.extend((gi, mon, c) for (gi, mon), c in basis.provenance_of(combo).items())
        if free:
            lead = max(free)
            lam = free[lead].annihilator(lead)
            functional = []
            for k, c in sorted(((self._sign * col, c) for col, c in lam.items()), reverse=True):
                functional.append({"monomial": mon_to_record(unpack(self.n, k, self.degree)), "coeff": str(c)})
            verdict = {"status": NON_MEMBER, "functional": functional}
            if self.diagonal:
                verdict["slice"] = "diagonal"
            return verdict
        if self.diagonal:
            return None
        combination.sort(key=lambda t: (t[0], term_key(self.n, t[1])))
        combination = [{"gen": gi, "monomial": mon_to_record(m), "coeff": str(c)} for gi, m, c in combination]
        return {"status": MEMBER, "combination": combination}

    def verify(self, f: Polynomial, verdict: dict) -> bool:
        """Re-check a verdict of `contains`, or its `json.loads`, by
        independent exact arithmetic.  Only `member` and `non_member` carry a
        certificate, and one that cannot be read fails: a missing key, a `gen`
        outside range(len(gens)), a monomial not in the form reports print
        (`mon_from_record`), a bad coefficient, a functional that names one
        monomial twice.

        A functional is checked against every row of each block its support
        meets, rebuilt by `Polynomial.times_monomial` and not from the packed
        columns, so a packing fault cannot certify itself; rows of other
        blocks share no monomial with it.  On the slice, the functional must
        be supported on diagonal monomials and is checked against the slice
        rows, which suffices by the restriction argument of the module
        docstring."""
        monomial = lambda t: mon_from_record(self.n, t["monomial"])
        try:
            if verdict["status"] == MEMBER:
                acc: dict = {}
                for t in verdict["combination"]:
                    if t["gen"] not in range(len(self.gens)):
                        return False
                    coeff, mon = Fraction(t["coeff"]), monomial(t)
                    for m2, c2 in self.gens[t["gen"]].times_monomial(mon).terms.items():
                        acc[m2] = acc.get(m2, 0) + coeff * c2
                return {m: c for m, c in acc.items() if c} == f.terms
            if verdict["status"] != NON_MEMBER:
                return False
            lam = {monomial(t): Fraction(t["coeff"]) for t in verdict["functional"]}
            if len(lam) != len(verdict["functional"]):
                return False
        except (ArithmeticError, LookupError, TypeError, ValueError):
            return False
        if self.diagonal and not all(map(_is_diagonal, lam)):
            return False
        if apply_functional(lam, f.terms) == 0:
            return False
        return all(
            apply_functional(lam, g.times_monomial(m).terms) == 0
            for w in {self._weight(m) for m in lam}
            for _, g, _, mons in self._block_multipliers(w)
            for m, _ in mons
        )


def ideal_contains(f: Polynomial, gens) -> dict:
    """Decide whether f lies in the ideal generated by `gens`.

    The diagonal slice is tried first: it is far smaller than the weight
    blocks, and its non-member functional certifies the full ring.  When
    rho(f) lies in the restricted ideal the slice proves nothing, and the
    weight blocks decide."""
    gens = tuple(gens)
    if f.is_zero():
        return {"status": MEMBER, "combination": []}
    verdict = GradedPiece(f.n, gens, f.degree, diagonal=True).contains(f)
    if verdict is None:
        verdict = GradedPiece(f.n, gens, f.degree).contains(f)
    return verdict


# -- schedule verification ---------------------------------------------------


def _layer_name(i: int, p: int, k: int | None = None) -> str:
    """t_p for the invariant layer (i = 0), else U_(i,p), or U_(i,p)[k]
    for its k-th member."""
    if i == 0:
        return f"t_{p}"
    return f"U_({i},{p})" if k is None else f"U_({i},{p})[{k}]"


def scheduled_generators(mu: Partition, before_depth: int | None = None):
    """The minimal-schedule generator polynomials, with labels.

    Returns (labels, polynomials): the `layer_basis` of every layer (i, p)
    of `minimal_schedule(mu)` with i < before_depth (all when None), in
    schedule order, so the invariants t_p come first, one polynomial each.
    """
    labels: list[str] = []
    gens: list[Polynomial] = []
    for i, p in minimal_schedule(mu):
        if before_depth is None or i < before_depth:
            for k, poly in enumerate(layer_basis(mu.n, i, p)):
                labels.append(_layer_name(i, p, k))
                gens.append(poly)
    return labels, gens


def verify_redundant(mu: Partition, i: int) -> dict:
    """Certify that the `layer_basis(n, i, p)` representatives of the
    excluded depth i lie in the ideal of the invariants and the scheduled
    spaces of smaller depth.  They span V(i,p) only together with V(i-1,p),
    so `all_member` proves V(i,p) in the ideal only given V(i-1,p) in it,
    which no check certifies yet (ROADMAP item 10).

    Returns the JSON-ready report: `partition`, `i`, the size `p`,
    `zero_space`, the earlier `generators` by label, one `verdicts` entry
    (the dict of `GradedPiece.contains`) per representative, their number
    as `candidates`, and `all_member`.  A zero space has no candidates and
    is vacuously generated."""
    if i not in excluded_depths(mu):
        raise ValueError(f"depth {i} is not excluded for {mu}")
    n = mu.n
    p = mu.critical_size(i)
    zero_space = minor_space_vanishes(n, i, p)
    labels, verdicts = [], []
    if not zero_space:
        labels, gens = scheduled_generators(mu, before_depth=i)
        piece = GradedPiece(n, gens, p)
        verdicts = [piece.contains(c) for c in layer_basis(n, i, p)]
    return {
        "partition": str(mu),
        "i": i,
        "p": p,
        "zero_space": zero_space,
        "candidates": len(verdicts),
        "generators": labels,
        "verdicts": verdicts,
        "all_member": all(v["status"] == MEMBER for v in verdicts),
    }


def verify_rel1(n: int) -> dict:
    """Check V(i,p+1) in <V(i,p)> for every 1 <= i <= p < n, each space
    spanned by the layer representatives of depths 0..i at its size.

    One piece per size p is grown by the layers of size p depth by depth;
    the ideal of V(i,p) only grows with i, so a candidate shown a member at
    a smaller depth stays one and is not queried again.  Returns the
    JSON-ready report: `kind` "rel1", `n`, one `results` entry
    {i, p, all_member} per pair, and `ok` when every pair holds."""
    if n < 2:
        raise ValueError(f"no pair 1 <= i <= p < n for n = {n}: the sweep would be vacuous")
    results = []
    for p in range(1, n):
        piece = GradedPiece(n, (), p + 1)
        candidates = []  # the layers of depth 0..i at size p+1; the first `shown` are members
        shown = 0
        for i in range(p + 1):
            piece.add(layer_basis(n, i, p))
            candidates += layer_basis(n, i, p + 1)
            if not i:
                continue
            while shown < len(candidates) and piece.contains(candidates[shown])["status"] == MEMBER:
                shown += 1
            results.append({"i": i, "p": p, "all_member": shown == len(candidates)})
    return {"kind": "rel1", "n": n, "results": results, "ok": all(r["all_member"] for r in results)}


def _check(kind: str, i: int, p: int, expected: str, status: str, detail: dict) -> dict:
    """One claim of the minimality report, of kind "minor_space",
    "invariant" or "excluded"; it is `ok` when the status found is the
    status expected."""
    return {
        "kind": kind,
        "i": i,
        "p": p,
        "expected": expected,
        "status": status,
        "ok": status == expected,
        "detail": detail,
    }


def _depth_one_witness(mu: Partition) -> Partition:
    """Orbit whose closure separates the depth-1 space from the invariants:
    any Jordan type with a longer first block, the hook being the smallest."""
    n = mu.n
    head = mu[0] + 1
    return Partition((head,) + (1,) * (n - head))


def _point_certificate_check(mu: Partition, i: int, p: int, witness: Partition) -> dict:
    """Check that every earlier scheduled generator vanishes at the Jordan
    matrix of the witness orbit and some candidate does not.

    Each generator is the prefixed sum of a tag (P, Q), so its value there
    is the signed count `prefixed_sum_at_jordan` and nothing is expanded.
    The generators are numbered as in `scheduled_generators`: the
    `layer_tags` of every earlier layer, the invariants first."""
    n = mu.n
    earlier = [(P, Q, q) for j, q in minimal_schedule(mu) if j < i for P, Q in layer_tags(n, j)]
    bad = [gi for gi, tag in enumerate(earlier) if prefixed_sum_at_jordan(witness, *tag) != 0]
    if bad:
        detail = {"witness": str(witness), "nonvanishing_generators": bad}
        return _check("minor_space", i, p, NON_MEMBER, "mismatch", detail)
    for idx, (P, Q) in enumerate(layer_tags(n, i)):
        if prefixed_sum_at_jordan(witness, P, Q, p) != 0:
            detail = {"witness": str(witness), "element": idx, "point": jordan_matrix(witness)}
            return _check("minor_space", i, p, NON_MEMBER, NON_MEMBER, detail)
    detail = {"witness": str(witness)}
    return _check("minor_space", i, p, NON_MEMBER, "inconclusive", detail)


def verify_minor_space_certificate(mu: Partition, i: int, detail: dict) -> bool:
    """Re-verify a stored vanishing-point certificate exactly.

    Unlike `_point_certificate_check`, this expands the generators and the
    candidate and evaluates the polynomials at the stored `point`, so it
    rechecks the matrix as stored, independently of the signed count at a
    Jordan matrix."""
    point = detail["point"]
    _, earlier = scheduled_generators(mu, before_depth=i)
    candidate = layer_basis(mu.n, i, mu.critical_size(i))[detail["element"]]
    if any(g.evaluate(point) != 0 for g in earlier):
        return False
    return candidate.evaluate(point) != 0


def verify_minimal(mu: Partition) -> dict:
    """Verify the minimal schedule end to end at desk scale.

    Scheduled minor spaces get vanishing-point non-membership certificates
    at the Jordan matrices of witness orbits; invariants are checked against
    the remaining generators by the graded oracle, whose verdict is the
    check's `detail` and counts only once `GradedPiece.verify` accepts its
    certificate (status "unverified" otherwise); excluded depths get their
    `layer_basis` representatives certified members (see `verify_redundant`),
    and each combination is re-checked the same way.
    Inconclusive outcomes are reported, never silenced.

    Returns the JSON-ready report: `partition`, `n`, one `checks` entry
    per claim (see `_check`), minor spaces first, then invariants, then
    excluded depths, and `ok` when every check holds.
    """
    layers = minimal_schedule(mu)
    checks: list[dict] = []

    for i, p in layers:
        if i:
            witness = necessity_witness(mu, i) if i >= 2 else _depth_one_witness(mu)
            checks.append(_point_certificate_check(mu, i, p, witness))

    _, gens = scheduled_generators(mu)
    # the invariant layers come first, one generator each
    for k, p in enumerate(p for i, p in layers if not i):
        f, others = gens[k], gens[:k] + gens[k + 1 :]
        verdict = ideal_contains(f, others)
        certified = GradedPiece(mu.n, others, p, diagonal="slice" in verdict).verify(f, verdict)
        checks.append(_check("invariant", 0, p, NON_MEMBER, verdict["status"] if certified else "unverified", verdict))

    for i in excluded_depths(mu):
        report = verify_redundant(mu, i)
        status = MEMBER if report["all_member"] else "mismatch"
        if report["verdicts"]:
            piece = GradedPiece(mu.n, scheduled_generators(mu, before_depth=i)[1], report["p"])
            if not all(map(piece.verify, layer_basis(mu.n, i, report["p"]), report["verdicts"])):
                status = "unverified"
        detail = {"zero_space": report["zero_space"], "candidates": report["candidates"]}
        checks.append(_check("excluded", i, report["p"], MEMBER, status, detail))

    return {"partition": str(mu), "n": mu.n, "checks": checks, "ok": all(c["ok"] for c in checks)}
