"""Local ring computations at the origin: Mora normal form, standard bases,
and dimensions of zero-dimensional quotients.

The monomial order is local (1 is the largest monomial), so leading-term
reduction implicitly works modulo units of the local ring; termination of the
normal form follows from the ecart bound.
"""

from __future__ import annotations

from .poly import Poly, PolyError

INFINITE = float("inf")

# Reduction steps per normal form, and S-pairs per standard basis, before
# ResourceExceeded.
STEP_CAP = 10 ** 6


class ResourceExceeded(RuntimeError):
    pass


class LocalIdeal:
    def __init__(self, generators):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise PolyError("ideal needs at least one nonzero generator")
        vars, field = gens[0].vars, gens[0].field
        for g in gens:
            if g.vars != vars or g.field != field:
                raise PolyError("generators disagree on variables or field")
        self.generators = gens
        self.vars = vars
        self.field = field

    def __repr__(self):
        return f"LocalIdeal({', '.join(map(str, self.generators))})"


class StandardBasis:
    def __init__(self, basis, leading_ideal):
        self.basis = basis
        self.leading_ideal = leading_ideal  # minimal generating exponents


def _divides(e1, e2) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _lead_ecart(p: Poly):
    """(leading exponent, leading coefficient, ecart) of a nonzero p."""
    e, c = p.leading()
    return e, c, p.total_degree() - sum(e)


def mora_normal_form(f: Poly, basis) -> Poly:
    """Weak normal form: u*f = sum a_i g_i + result for some local unit u.

    Each reducer carries its leading term and ecart, computed once when it
    enters the list; the reducer used is the first of minimal ecart among
    those whose leading monomial divides h's."""
    reducers = [(*_lead_ecart(g), g) for g in basis if not g.is_zero()]
    h = f
    steps = 0
    while not h.is_zero():
        lh, ch, eh = _lead_ecart(h)
        best = None
        for r in reducers:
            if (best is None or r[2] < best[2]) and _divides(r[0], lh):
                best = r
        if best is None:
            return h
        lg, cg, eg, g = best
        if eg > eh:
            reducers.append((lh, ch, eh, h))
        mono = tuple(a - b for a, b in zip(lh, lg))
        factor = Poly(h.vars, {mono: ch * cg.inverse()}, h.field)
        h = h - factor * g
        steps += 1
        if steps > STEP_CAP:
            raise ResourceExceeded("normal form exceeded the reduction budget")
    return h


def _spoly(a: Poly, b: Poly) -> Poly:
    la, ca = a.leading()
    lb, cb = b.leading()
    lcm = tuple(max(x, y) for x, y in zip(la, lb))
    ma = Poly(a.vars, {tuple(x - y for x, y in zip(lcm, la)): ca.inverse()}, a.field)
    mb = Poly(a.vars, {tuple(x - y for x, y in zip(lcm, lb)): cb.inverse()}, a.field)
    return ma * a - mb * b


def standard_basis(I: LocalIdeal) -> StandardBasis:
    """Standard basis of I by Mora's tangent-cone algorithm.

    If a generator has a nonzero constant term it is a unit of the local
    ring, so I is the whole ring: the basis is [1] and the leading ideal is
    generated by (0, ..., 0).  Checking the generators is exact: when none is
    a unit, every element of I lies in the maximal ideal and the loop below
    never produces a unit either.
    """
    if any(g.is_unit_local() for g in I.generators):
        one = Poly.constant(1, I.vars, I.field)
        return StandardBasis([one], [(0,) * len(I.vars)])
    G = [g.normalized() for g in I.generators]
    leads = [g.leading()[0] for g in G]     # kept in step with G
    pairs = [(i, j) for i in range(len(G)) for j in range(i)]
    steps = 0
    while pairs:
        pairs.sort(key=lambda p: sum(max(x, y) for x, y in zip(
            leads[p[0]], leads[p[1]])), reverse=True)
        i, j = pairs.pop()
        li, lj = leads[i], leads[j]
        lcm = tuple(max(x, y) for x, y in zip(li, lj))
        if lcm == tuple(x + y for x, y in zip(li, lj)):
            continue  # product criterion
        r = mora_normal_form(_spoly(G[i], G[j]), G)
        steps += 1
        if steps > STEP_CAP:
            raise ResourceExceeded("standard basis exceeded the step budget")
        if not r.is_zero():
            G.append(r.normalized())
            leads.append(G[-1].leading()[0])
            k = len(G) - 1
            pairs.extend((k, t) for t in range(k))
    minimal = [e for e in leads
               if not any(f != e and _divides(f, e) for f in leads)]
    # deduplicate
    lead_set = []
    for e in minimal:
        if e not in lead_set:
            lead_set.append(e)
    return StandardBasis(G, lead_set)


def _staircase_count(leading, nvars):
    """Number of monomials outside the monomial ideal, or INFINITE."""
    if any(all(x == 0 for x in e) for e in leading):
        return 0
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leading if sum(e) == e[i]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    count = 0
    stack = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        if i == nvars:
            if not any(_divides(e, prefix) for e in leading):
                count += 1
            continue
        for k in range(bounds[i]):
            stack.append((i + 1, prefix + (k,)))
    return count


def quotient_dim(I: LocalIdeal):
    return _staircase_count(standard_basis(I).leading_ideal, len(I.vars))


def intersection_multiplicity(h1: Poly, h2: Poly):
    """Local intersection number dim O/(h1, h2); INFINITE for a shared branch."""
    return quotient_dim(LocalIdeal([h1, h2]))


def milnor_number(h: Poly):
    """Milnor number at the origin of the curve h = 0, for h reduced there.
    A factor repeated at the origin divides the whole Jacobian ideal, which
    is then not m-primary, so a non-reduced h gives INFINITE."""
    jac = [h.derivative(v) for v in h.vars]
    jac = [p for p in jac if not p.is_zero()]
    if not jac:
        raise PolyError("constant polynomial has no Milnor number")
    return quotient_dim(LocalIdeal(jac))
