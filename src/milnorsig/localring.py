"""Local ring computations at the origin: Mora normal form, standard bases,
and dimensions of zero-dimensional quotients.

The monomial order is local (1 is the largest monomial), so leading-term
reduction implicitly works modulo units of the local ring; termination of the
normal form follows from the ecart bound.

Before Mora, ``quotient_dim`` eliminates linear variables: if a generator is
c*x + h with c a nonzero constant, h free of x and h(0) = 0, then
O/I = O'/(I with x = -h/c), where O' is the local ring without x and the
generator itself is dropped (Singular's ``elimpart``; Greuel-Pfister, A
Singular Introduction to Commutative Algebra, ch. 1).  The substitution keeps
every constant term, so I is the whole ring exactly when one of its original
generators is a unit.
"""

from __future__ import annotations

from itertools import product

from .poly import Poly, PolyError

INFINITE = float("inf")

# Reduction steps per normal form, and S-pairs per standard basis, before
# ResourceExceeded.
STEP_CAP = 10 ** 6


class ResourceExceeded(RuntimeError):
    pass


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


def standard_basis(gens: list[Poly]) -> list[Poly]:
    """Mora's tangent-cone standard basis of (gens), nonzero non-units: the
    generators and each nonzero S-polynomial normal form, normalized."""
    G = [g.normalized() for g in gens]
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
    return G


def _staircase_count(leading, nvars):
    """Number of monomials outside the ideal of the exponents ``leading``,
    or INFINITE; each lies below the least pure power of every variable."""
    bounds = [min((e[i] for e in leading if sum(e) == e[i]), default=None)
              for i in range(nvars)]
    if None in bounds:
        return INFINITE
    return sum(not any(_divides(e, m) for e in leading)
               for m in product(*map(range, bounds)))


def linear_pivot(gens):
    """(k, x, root) with gens[k] = c*x + h, c a nonzero constant and h free
    of x, and root = -h/c in the variables other than x; or None.  The
    caller has ruled out units, so h(0) = 0."""
    for k, g in enumerate(gens):
        n = len(g.vars)
        for i in range(n):
            unit = tuple(int(j == i) for j in range(n))
            if unit in g.terms and all(e[i] == 0 for e in g.terms if e != unit):
                scale = -g.terms[unit].inverse()
                root = Poly(g.vars[:i] + g.vars[i + 1:],
                            {e[:i] + e[i + 1:]: a * scale
                             for e, a in g.terms.items() if e != unit}, g.field)
                return k, g.vars[i], root
    return None


def quotient_dim(generators):
    """dim O/I, or INFINITE, for I generated by an iterable of polynomials
    over one ring, read in turn: zeros are left out, the first unit gives 0
    with nothing after it read (units are decided here alone), and the zero
    ideal gives INFINITE.  Then the linear variables are eliminated (module
    docstring) and Mora's standard basis counts what is left, unless one
    variable is left: then I is generated by the generator of least order."""
    gens = []
    for g in generators:
        if g.is_zero():
            continue
        if gens and (g.vars != gens[0].vars or g.field != gens[0].field):
            raise PolyError("generators disagree on variables or field")
        if g.is_unit_local():
            return 0
        gens.append(g)
    if not gens:
        return INFINITE
    vars = gens[0].vars
    while (pivot := linear_pivot(gens)) is not None:
        k, x, root = pivot
        vars = root.vars
        gens = [h.substitute(x, root) for h in gens[:k] + gens[k + 1:]]
        gens = [h for h in gens if not h.is_zero()]
    if not vars:
        return 1
    if not gens:
        return INFINITE
    if len(vars) == 1:  # O is a discrete valuation ring: I = (x^(least order))
        return min(e[0] for g in gens for e in g.terms)
    return _staircase_count([g.leading()[0] for g in standard_basis(gens)], len(vars))


def intersection_multiplicity(h1: Poly, h2: Poly):
    """Local intersection number dim O/(h1, h2); INFINITE for a shared branch."""
    return quotient_dim([h1, h2])


def milnor_number(h: Poly):
    """Milnor number at the origin of the curve h = 0, for h reduced there.
    A factor repeated at the origin divides the whole Jacobian ideal, which
    is then not m-primary, so a non-reduced h gives INFINITE."""
    if h.is_constant():
        raise PolyError("constant polynomial has no Milnor number")
    return quotient_dim(h.derivative(v) for v in h.vars)
