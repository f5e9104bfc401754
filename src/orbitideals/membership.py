"""Graded ideal membership with exact certificates, and the end-to-end
minimality / redundancy verification for generator schedules.

Every generator and every candidate is a prefixed minor sum, known by its
tag (P, Q, p): the sum over J of (P,J|Q,J) at size p (`minors.tag_sum`).
Membership of the sum f in the ideal is decided entirely in degree p: the
rows of the graded piece are all products g * m of a generator with a
monomial of complementary degree, and f is a member iff its coefficient
vector lies in their row span.

The diagonal torus scales x_rc by s_r / s_c, so a monomial has weight
sum e * (e_r - e_c) over its x_rc^e, and the sum of a tag has the single
weight e_P - e_Q (`minors.tag_weight`), read from the tag.  So the piece
splits exactly into weight blocks, the rows g * m with wt(g) + wt(m) = w,
and f is a member iff it lies in the block of its own weight.  Blocks are
enumerated directly and eliminated over Q on first use, so a query
touches only the block its candidate meets.

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
rho of a tag has a closed form, [P = Q] x_P e_(p-|P|)(x_rr, r not in P)
(`minors.tag_restriction`), so the slice expands no polynomial.

`ideal_contains` is the one certified membership question: it asks the
slice, then the weight blocks, and re-checks the verdict with `verify` on
the piece that gave it.  The invariant and excluded-depth checks of
`verify_minimal` and the steps of `verify_rel1` all ask through it, and
read the status it returns.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import TriangularBasis, apply_functional
from .minors import tag_restriction, tag_sum, tag_weight
from .orbit import jordan_matrix, jordan_values
from .partitions import (
    Partition,
    excluded_depths,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
)
from .polyring import (
    Polynomial,
    mon_from_record,
    mon_to_record,
    mon_weight,
    monomials_of_degree,
    monomials_of_weight,
    pack,
    unpack,
)
from .schur import highest_weight_tag, is_highest_weight, layer_basis, layer_dimension, layer_generators, layer_tags

MEMBER = "member"
NON_MEMBER = "non_member"


def _is_diagonal(mon) -> bool:
    return all(r == c for (r, c), _ in mon)


class GradedPiece:
    """The degree-d slice of the ideal generated by prefixed minor sums,
    each known by its tag (P, Q, p) (`minors.tag_weight`), split into
    torus-weight blocks that are built and eliminated on first use.  The
    generators are fixed when the piece is built, so each block is
    eliminated once, and then serves every membership query in its weight.
    A malformed tag raises ValueError, as a generator or as a candidate, on
    the slice too; a generator of size above d gives no row.

    A tag's weight is e_P - e_Q, read from the tag.  The rows g * m of
    weight w (those with wt(g) + wt(m) = w) span exactly the weight-w part
    of the piece, and a candidate tag, one weight vector, is a member iff
    it lies in the block of its weight.  Only the rows and the candidate of
    that block, and a member's re-check, expand a tag (`minors.tag_sum`,
    once per process).

    With `diagonal=True` the piece is the diagonal slice: its rows are
    rho(g) * m for diagonal monomials m, all in the weight-0 block, and a
    candidate is replaced by rho(f).  Each rho comes from its closed form
    (`minors.tag_restriction`), zero unless P = Q, so the slice expands no
    tag.  The slice proves non-membership only (see the module docstring),
    so it tracks no provenance and `contains` gives None where the full
    piece might say `member`.

    Rows are eliminated on int columns, the exponent digits
    `pack(n, mon, d)` of their monomials.  The column of t * m is that of t
    plus that of m, with no carry, so each generator is packed once per
    piece and a row is built by int addition.  The pivot is the smallest
    monomial (`linalg`), and only the columns of a non-member functional
    are decoded.
    """

    path = "exact"  # read by perfbench/layers.py until ROADMAP item 6 lands

    def __init__(self, n: int, gens, degree: int, diagonal: bool = False):
        self.n = n
        self.degree = degree
        self.gens = tuple(gens)
        self.diagonal = diagonal
        # (gen index, row generator, torus weight, packed columns)
        self._row_gens: list[tuple] = []
        for gi, tag in enumerate(self.gens):
            w = tag_weight(n, tag)
            # rho(g) is made of diagonal monomials, of weight 0, so it is zero unless w = 0
            if tag[2] > degree or (diagonal and any(w)) or (g := self._expand(tag)).is_zero():
                continue
            self._row_gens.append((gi, g, w, {pack(n, t, degree): c for t, c in g.terms.items()}))
        # weight -> exact row-reduced basis of its rows, with provenance
        # outside the slice
        self._blocks: dict[tuple, TriangularBasis] = {}
        # totals over the blocks built so far; a fresh piece has built none
        self.rows: list[tuple] = []  # (gen index, multiplier) of every row
        self.nonzeros = 0
        self._multipliers: dict[tuple, list] = {}  # (degree, weight) -> [(monomial, offset)]

    def _expand(self, tag) -> Polynomial:
        """The sum of a tag, or its rho on the slice."""
        return (tag_restriction if self.diagonal else tag_sum)(self.n, tag)

    def _block_multipliers(self, w: tuple):
        """(gen index, row generator, its columns, [(multiplier, column
        offset)]) of the rows of weight w, in the order of the whole piece:
        by generator, then descending multiplier."""
        for gi, g, gw, packed in self._row_gens:
            k = self.degree - g.degree
            mw = tuple(a - b for a, b in zip(w, gw))
            mons = self._multipliers.get((k, mw))
            if mons is None:
                if self.diagonal:
                    mons = monomials_of_degree(self.n, k, [(r, r) for r in range(1, self.n + 1)])
                else:
                    mons = monomials_of_weight(self.n, k, mw)
                mons = self._multipliers[(k, mw)] = [(m, pack(self.n, m, self.degree)) for m in mons]
            yield gi, g, packed, mons

    def _block(self, w: tuple) -> TriangularBasis:
        basis = self._blocks.get(w)
        if basis is None:
            basis = self._blocks[w] = TriangularBasis(track=not self.diagonal)
            for gi, _, packed, mons in self._block_multipliers(w):
                for m, off in mons:
                    tag = (gi, m)
                    basis.insert({k + off: c for k, c in packed.items()}, tag)
                    self.rows.append(tag)
                self.nonzeros += len(packed) * len(mons)
        return basis

    def contains(self, f) -> dict | None:
        """The verdict on the candidate tag f, or None from a slice where
        rho(f) is zero or a member.  A verdict is the dict a report prints:
        `status`, then a member's `combination` [{gen, monomial, coeff}] or
        a non-member's `functional` [{monomial, coeff}], and
        `slice: "diagonal"` for one found there."""
        w = tag_weight(self.n, f)
        if f[2] != self.degree:
            raise ValueError(f"candidate degree {f[2]} != piece degree {self.degree}")
        if self.diagonal and any(w):
            return None
        terms = self._expand(f).terms
        if not terms:
            return {"status": MEMBER, "combination": []}
        basis = self._block(w)
        residual, combo = basis.reduce({pack(self.n, mon, self.degree): c for mon, c in terms.items()})
        if residual:
            lam = basis.annihilator(min(residual))
            functional = []
            for k, c in sorted(lam.items(), reverse=True):
                functional.append({"monomial": mon_to_record(unpack(self.n, k, self.degree)), "coeff": str(c)})
            verdict = {"status": NON_MEMBER, "functional": functional}
            if self.diagonal:
                verdict["slice"] = "diagonal"
            return verdict
        if self.diagonal:
            return None
        prov = sorted(basis.provenance_of(combo).items(), key=lambda t: (t[0][0], pack(self.n, t[0][1], self.degree)))
        combination = [{"gen": gi, "monomial": mon_to_record(m), "coeff": str(c)} for (gi, m), c in prov]
        return {"status": MEMBER, "combination": combination}

    def verify(self, f, verdict: dict) -> bool:
        """Re-check a verdict of `contains` on the candidate tag f, or its
        `json.loads`, by independent exact arithmetic.  Only `member` and
        `non_member` carry a certificate, and one that cannot be read
        fails: a missing key, a `gen` that is not an int of
        range(len(gens)), a monomial not in the form reports print
        (`mon_from_record`), a coefficient that is not the string
        `str(Fraction(s))` gives for itself, a functional that names one
        monomial twice.

        A member's combination is recombined from the expanded generators
        and compared with the expanded candidate.  A functional is checked
        against every row of each block its support meets, rebuilt by
        `Polynomial.times_monomial` and not from the packed columns, so a
        packing fault cannot certify itself; rows of other blocks share no
        monomial with it.  On the slice, the functional must be supported
        on diagonal monomials and is checked against the slice rows and
        rho(f), which suffices by the restriction argument of the module
        docstring."""
        monomial = lambda t: mon_from_record(self.n, t["monomial"])
        try:
            terms = verdict[{MEMBER: "combination", NON_MEMBER: "functional"}[verdict["status"]]]
            if not all(type(s := t["coeff"]) is str and str(Fraction(s)) == s for t in terms):
                return False
            if verdict["status"] == MEMBER:
                acc: dict = {}
                for t in terms:
                    if type(t["gen"]) is not int or t["gen"] not in range(len(self.gens)):
                        return False
                    coeff, mon = Fraction(t["coeff"]), monomial(t)
                    for m2, c2 in tag_sum(self.n, self.gens[t["gen"]]).times_monomial(mon).terms.items():
                        acc[m2] = acc.get(m2, 0) + coeff * c2
                return {m: c for m, c in acc.items() if c} == tag_sum(self.n, f).terms
            lam = {monomial(t): Fraction(t["coeff"]) for t in terms}
            if len(lam) != len(terms):
                return False
        except (ArithmeticError, LookupError, TypeError, ValueError):
            return False
        if self.diagonal and not all(map(_is_diagonal, lam)):
            return False
        if apply_functional(lam, self._expand(f).terms) == 0:
            return False
        return all(
            apply_functional(lam, g.times_monomial(m).terms) == 0
            for w in {mon_weight(self.n, m) for m in lam}
            for _, g, _, mons in self._block_multipliers(w)
            for m, _ in mons
        )


def ideal_contains(n: int, f, gens) -> tuple[dict, str]:
    """Decide whether the sum of the tag f lies in the ideal generated by
    the sums of the tags `gens`, at matrix size n, and re-check the answer
    (a malformed tag raises ValueError; `GradedPiece`).

    Returns (verdict, status): the verdict of the first piece that decides,
    and its status once that same piece's `GradedPiece.verify` accepts its
    certificate, "unverified" otherwise.  The diagonal slice is asked first
    when rho(f) != 0, that is when P = Q: it is far smaller than the weight
    blocks, and its non-member functional certifies the full ring.  When
    rho(f) lies in the restricted ideal, or P != Q, the slice proves
    nothing, and the weight blocks decide."""
    gens = tuple(gens)
    verdict = None
    if f[0] == f[1]:  # rho(f) != 0
        piece = GradedPiece(n, gens, f[2], diagonal=True)
        verdict = piece.contains(f)
    if verdict is None:
        piece = GradedPiece(n, gens, f[2])
        verdict = piece.contains(f)
    return verdict, verdict["status"] if piece.verify(f, verdict) else "unverified"


# -- schedule verification ---------------------------------------------------


def _layer_name(i: int, p: int, k: int | None = None) -> str:
    """t_p for the invariant layer (i = 0), else U_(i,p), or U_(i,p)[k]
    for its k-th member."""
    if i == 0:
        return f"t_{p}"
    return f"U_({i},{p})" if k is None else f"U_({i},{p})[{k}]"


def _generators(n: int, layers) -> list[tuple]:
    """The tags (`layer_generators`) of the representatives of each layer
    (i, p) of `layers`, in order: the generators a minimality question asks
    against, numbered as a verdict's `gen` numbers them."""
    return [tag for i, p in layers for tag in layer_generators(n, i, p)]


def scheduled_generators(mu: Partition, before_depth: int | None = None):
    """The minimal-schedule generator tags, with labels.

    Returns (labels, tags): the representatives (`_generators`) of
    every layer (i, p) of `minimal_schedule(mu)` with i < before_depth (all
    when None), in schedule order.  `verify_redundant` and
    `verify_minor_space_certificate` read it; `verify_minimal` does not,
    since each of its questions names its own layers."""
    layers = [(i, p) for i, p in minimal_schedule(mu) if before_depth is None or i < before_depth]
    labels = [_layer_name(i, p, k) for i, p in layers for k in range(len(layer_generators(mu.n, i, p)))]
    return labels, _generators(mu.n, layers)


def verify_redundant(mu: Partition, i: int) -> dict:
    """Certify that the `layer_basis(n, i, p)` representatives of the
    excluded depth i lie in the ideal of the invariants and the scheduled
    spaces of smaller depth, one query per representative.  They span
    V(i,p) only together with V(i-1,p), so `all_member` proves V(i,p) in
    the ideal only given V(i-1,p) in it; the `excluded` check of
    `verify_minimal` certifies all of V(i,p) from highest-weight vectors
    instead, and this per-candidate report is its test oracle.

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
        verdicts = [piece.contains(c) for c in layer_generators(n, i, p)]
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

    V(i,p) is GL_n-stable (Weyman 1989), so its ideal is, and it holds the
    layer L_k(p+1) exactly when it holds h_k(p+1) (`schur.is_highest_weight`).
    V(i,p+1) adds the layers k = 0 and 1 over V(0,p+1) at i = 1, and the
    layer k = i after that, so h_k(p+1) of each nonzero one is asked
    against the layers of V(i,p) (`_step_layers`) by `_query_status`, and
    counts once `is_highest_weight` accepts it and `ideal_contains` has
    re-checked its certificate.  The ideal of V(i,p) only grows with i, so
    a vector shown a member stays one, and a vector not shown one is asked
    again at the next depth.  Returns the JSON-ready report: `kind` "rel1",
    `n`, one `results` entry {i, p, all_member} per pair, `all_member` when
    no vector is pending, and `ok` when every pair holds."""
    if n < 2:
        raise ValueError(f"no pair 1 <= i <= p < n for n = {n}: the sweep would be vacuous")
    results = []
    for p in range(1, n):
        pending: list[int] = []  # the layers k of size p+1 whose h_k is not shown a member
        for i in range(1, p + 1):
            pending += [k for k in ((0, 1) if i == 1 else (i,)) if not minor_space_vanishes(n, k, p + 1)]
            against = _step_layers(n, i, p + 1)
            pending = [k for k in pending if _query_status(n, k, p + 1, against) != MEMBER]
            results.append({"i": i, "p": p, "all_member": not pending})
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
    is read from `jordan_values`, once per layer, and nothing is expanded.
    The generators are numbered as in `scheduled_generators`: the
    `layer_tags` of every earlier layer, the invariants first."""
    n = mu.n
    layers = [(j, jordan_values(witness, j, q)) for j, q in minimal_schedule(mu) if j < i]
    bad = [gi for gi, hit in enumerate(tag in nonzero for j, nonzero in layers for tag in layer_tags(n, j)) if hit]
    if bad:
        detail = {"witness": str(witness), "nonvanishing_generators": bad}
        return _check("minor_space", i, p, NON_MEMBER, "mismatch", detail)
    nonzero = jordan_values(witness, i, p)
    for idx, tag in enumerate(layer_tags(n, i)):
        if tag in nonzero:
            detail = {"witness": str(witness), "element": idx, "point": jordan_matrix(witness)}
            return _check("minor_space", i, p, NON_MEMBER, NON_MEMBER, detail)
    detail = {"witness": str(witness)}
    return _check("minor_space", i, p, NON_MEMBER, "inconclusive", detail)


def verify_minor_space_certificate(mu: Partition, i: int, detail: dict) -> bool:
    """Re-verify a stored vanishing-point certificate exactly.

    Unlike `_point_certificate_check`, this expands the generators and the
    candidate and evaluates the polynomials at the stored `point`, so it
    rechecks the matrix as stored, independently of `jordan_values`."""
    point = detail["point"]
    _, earlier = scheduled_generators(mu, before_depth=i)
    candidate = layer_basis(mu.n, i, mu.critical_size(i))[detail["element"]]
    if any(tag_sum(mu.n, g).evaluate(point) != 0 for g in earlier):
        return False
    return candidate.evaluate(point) != 0


def _step_layers(n: int, k: int, q: int) -> tuple:
    """The nonzero layers (j, q-1), j <= max(k,1), whose representatives
    span V(max(k,1), q-1): the generators a degree-1 step asks h_k(q)
    against."""
    return tuple((j, q - 1) for j in range(max(k, 1) + 1) if not minor_space_vanishes(n, j, q - 1))


def _excluded_queries(mu: Partition, i: int) -> list[tuple]:
    """The highest-weight queries (k, q, layers) that certify V(i,p), p the
    critical size of the excluded depth i, in the ideal I of the scheduled
    generators of depth < i: h_k at size q (`schur.highest_weight_tag`)
    is to lie in the ideal of the representatives of `layers`, each a
    generator layer (j, size).

    V(k,q) is V(k-1,q) plus its layer L_k(q), and L_k(q) lies in a
    GL_n-stable ideal once its highest-weight vector h_k(q) does
    (`schur.is_highest_weight`).  Each needed layer is shown in I one of
    four ways:
    - t_q with q <= mu_1 is a generator, and a zero layer is nothing;
    - a scheduled layer (k, q): its representatives are generators and span
      V(k,q) together with V(k-1,q), so the layers below it at size q are
      needed in its place;
    - an excluded depth k at its critical size q (the top layer of V(i,p)
      among them): h_k(q) against the scheduled layers of depth < k;
    - otherwise a degree-1 step: h_k(q) against the layers of
      V(max(k,1), q-1) (`_step_layers`), whose span is GL-stable, so
      L_k(q) lies in the ideal of V(max(k,1), q-1), whose layers are
      needed in turn.
    Sizes only fall along a chain of steps, and a depth-k chain ends at
    k's critical size, so the recursion ends.  The chain of each depth
    j < i runs from p down to p_j, so it reaches every scheduled layer
    (j, p_j) below i and needs the layers under it: these steps show that
    the scheduled representatives generate the GL_n-stable ideal of their
    spans, without which a query against them proves nothing about whole
    layers.  For (3,3,1) there are five queries where one per
    representative made 392.  Sorted by size, then layer, both descending,
    so the top layer comes first."""
    n, schedule = mu.n, minimal_schedule(mu)
    queries: list[tuple] = []
    seen: set = set()

    def need(k: int, q: int):
        if (k, q) in seen or minor_space_vanishes(n, k, q) or (not k and q <= mu[0]):
            return
        seen.add((k, q))
        if (k, q) in schedule:
            below = [(j, q) for j in range(k)]
        elif k and q == mu.critical_size(k):
            queries.append((k, q, tuple(layer for layer in schedule if layer[0] < k)))
            below = []
        else:
            below = _step_layers(n, k, q)
            queries.append((k, q, below))
        for layer in below:
            need(*layer)

    p = mu.critical_size(i)
    for k in range(i, -1, -1):
        need(k, p)
    return sorted(queries, key=lambda query: (-query[1], -query[0]))


def _query_status(n: int, k: int, q: int, layers) -> str:
    """The status of one highest-weight query, h_k(q) against the
    representatives of `layers` (`_generators`): the re-checked status of
    `ideal_contains` once `is_highest_weight` accepts the expansion of
    h_k(q), and "unverified" otherwise."""
    h = highest_weight_tag(n, k, q)
    _, status = ideal_contains(n, h, _generators(n, layers))
    return status if is_highest_weight(tag_sum(n, h), k) else "unverified"


def verify_minimal(mu: Partition) -> dict:
    """Verify the minimal schedule end to end at desk scale.

    Scheduled minor spaces get vanishing-point non-membership certificates
    at the Jordan matrices of witness orbits.  Each invariant t_p is asked
    by `ideal_contains` against the representatives (`_generators`) of the
    scheduled layers (i, q) with q <= p, t_p's own layer (0, p) left out:
    the question is one of degree p, where a generator of higher degree
    gives no row, and t_p is the tag ((), (), p), whose slice is built from
    closed forms, so a question the slice decides expands no layer.  The
    verdict is the
    check's `detail`, and its re-checked status is the check's status
    ("unverified" when the deciding piece rejects the certificate).  A
    non-member functional is fixed by the span of the piece and its column
    order, so it is the one the whole schedule would give; the `gen` of a
    member combination, which no passing report prints, numbers the
    question's own layer list.

    An excluded depth i with a nonzero layer at its size p is certified
    from highest-weight vectors: the queries of `_excluded_queries` show
    all of V(i,p), not only its `layer_basis` representatives, in the ideal
    of the scheduled generators of depth < i.  Each query (`_query_status`)
    counts once `ideal_contains` has re-checked its combination and
    `schur.is_highest_weight` accepts its vector; its `detail` keeps
    `zero_space` and `candidates` (the layer dimension, 0 for a zero space)
    and lists the `queries` {layer, p, generators, status}, the generators
    by layer.  Inconclusive outcomes are reported, never silenced.

    Returns the JSON-ready report: `partition`, `n`, one `checks` entry
    per claim (see `_check`), minor spaces first, then invariants, then
    excluded depths, and `ok` when every check holds.
    """
    n = mu.n
    layers = minimal_schedule(mu)
    checks: list[dict] = []

    for i, p in layers:
        if i:
            witness = necessity_witness(mu, i) if i >= 2 else _depth_one_witness(mu)
            checks.append(_point_certificate_check(mu, i, p, witness))

    for p in (p for i, p in layers if not i):
        against = [layer for layer in layers if layer[1] <= p and layer != (0, p)]
        verdict, status = ideal_contains(n, ((), (), p), _generators(n, against))
        checks.append(_check("invariant", 0, p, NON_MEMBER, status, verdict))

    for i in excluded_depths(mu):
        p = mu.critical_size(i)
        zero = minor_space_vanishes(n, i, p)
        detail = {"zero_space": zero, "candidates": 0 if zero else layer_dimension(n, i)}
        status = MEMBER
        if not zero:
            queries = [
                {
                    "layer": k,
                    "p": q,
                    "generators": [_layer_name(j, size) for j, size in against],
                    "status": _query_status(n, k, q, against),
                }
                for k, q, against in _excluded_queries(mu, i)
            ]
            found = {entry["status"] for entry in queries}
            if found != {MEMBER}:
                status = "unverified" if "unverified" in found else "mismatch"
            detail["queries"] = queries
        checks.append(_check("excluded", i, p, MEMBER, status, detail))

    return {"partition": str(mu), "n": n, "checks": checks, "ok": all(c["ok"] for c in checks)}
