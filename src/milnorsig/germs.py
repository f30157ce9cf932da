"""Map germs (C^2,0) -> (C^3,0): corank, cross-cap number, multiple-point
spaces via divided differences, the double-point curve, and the triple-point
number."""

from __future__ import annotations

from functools import cached_property

from .arith import (_constant_lead, _univ_coeffs, monic_remainder, poly_gcd,
                    resultant_and_s1, squarefree_part, try_divide)
from .factor import OverrideRequired, factor_components, is_prime_factor
from .localring import INFINITE, quotient_dim
from .poly import Poly, PolyError, divided_difference

UV = ("u", "v")


class AnalysisError(ValueError):
    """A computation failed in a way no override can fix."""


class OverrideSet:
    def __init__(self, double_curve=None, components=None, twist=None,
                 vertical_indices=None, T=None):
        self.double_curve = double_curve
        self.components = components
        self.twist = twist                      # index pairs (i, j); i == j is twisted
        self.vertical_indices = vertical_indices or {}
        self.T = T


class Germ:
    """A map germ (f1, f2, f3) in (u, v) over a number field, and its own
    analysis context: the Jacobian minors, the corank, the fold data and the
    multiple-point data depend only on the components and the field, which
    never change, so each is computed on first use and kept; the corank and
    C read the same minors.  A germ with no multiple-point data raises
    ``OverrideRequired`` on each read; the data keeps R's one factorization,
    a refusal included.  Overrides are read afresh.  The field's generator
    may not be named u or v."""

    def __init__(self, components, field, name="", overrides=None):
        f1, f2, f3 = components
        for f in (f1, f2, f3):
            if f.vars != UV:
                raise PolyError("germ components must be polynomials in (u, v)")
            if not f.is_zero() and f.is_unit_local():
                raise PolyError("germ components must vanish at the origin")
        if field.degree > 1 and field.generator_name in UV:
            raise PolyError("the field generator must not be named u or v")
        self.components = (f1, f2, f3)
        self.field = field
        self.name = name
        self.overrides = overrides or OverrideSet()

    def __repr__(self):
        return f"Germ({self.name or ', '.join(map(str, self.components))})"

    @cached_property
    def jacobian_minors(self) -> tuple[Poly, Poly, Poly]:
        """The 2x2 minors of the Jacobian matrix, rows (df_i/du, df_i/dv)."""
        du = [c.derivative("u") for c in self.components]
        dv = [c.derivative("v") for c in self.components]
        return tuple(du[i] * dv[j] - du[j] * dv[i] for i, j in ((0, 1), (0, 2), (1, 2)))

    @cached_property
    def corank(self) -> int:
        return corank(self)

    @cached_property
    def fold_data(self) -> Poly | None:
        return fold_normal_data(self)

    @cached_property
    def multipoint(self) -> MultiPointData:
        return multipoint_data(self)


class MultiPointData:
    """Divided-difference presentation of the double and triple point spaces,
    and what one elimination of v2 from P and Q gives
    (``arith.resultant_and_s1``), read in (u, v) with v1 as v.
    P and Q are symmetric in v1 <-> v2, so eliminating v1 instead gives the
    same polynomial with v2 read as v: one elimination is enough."""

    def __init__(self, P, Q):
        self.P = P
        self.Q = Q

    def triple_point_generators(self):
        """P, Q, ddP and ddQ (divided differences in v2) in (u, v1, v2, v3),
        each built when read.  Only the fallback of ``triple_point_number``
        and the tests read them: the multiplicity-2 rule settles every fold
        germ first."""
        vars4 = ("u", "v1", "v2", "v3")
        yield self.P.rename({}, vars4)
        yield self.Q.rename({}, vars4)
        yield divided_difference(self.P, "v2", ("v2", "v3"))
        yield divided_difference(self.Q, "v2", ("v2", "v3"))

    @cached_property
    def _elimination(self) -> tuple[Poly, Poly | None]:
        return resultant_and_s1(self.P, self.Q, "v2")

    @cached_property
    def resultant(self) -> Poly:
        """Res_v2(P, Q); on a fold germ P = v1 + v2, so this is +-p(u, v^2)."""
        r = self._elimination[0]
        if r.is_zero():
            raise AnalysisError("divided-difference resultant vanishes identically; "
                                "the germ is not finitely determined")
        return r.rename({"v1": "v"}, UV)

    @cached_property
    def line(self) -> tuple[Poly | None, Poly] | None:
        """(a, b) with a*v2 + b the degree-1 subresultant of P and Q in v2
        up to a constant factor, or (None, b/a) when a is a constant; None
        with no such subresultant.  The partner rule reads only -b/a and
        which branches divide a and the pullbacks, and a constant factor
        changes neither."""
        s1 = self._elimination[1]
        if s1 is None:
            return None
        b, a = (c.rename({"v1": "v"}, UV) for c in _univ_coeffs(s1, "v2"))
        if a.is_constant():  # fold germs and the cross-cap: P = v1 + v2
            return None, b.scale(a.terms[(0, 0)].inverse())
        return a, b

    @cached_property
    def factorization(self) -> list[Poly] | OverrideRequired:
        """``factor_components(resultant)``, or its refusal kept as a value."""
        try:
            return factor_components(self.resultant)
        except OverrideRequired as exc:
            return exc

    @cached_property
    def branches(self) -> list[Poly] | None:
        """``factorization`` when its factors are prime polynomials
        (``is_prime_factor``), else None: distinct primes dividing R, they
        are the branches of every squarefree part of R."""
        factors = self.factorization
        if isinstance(factors, list) and all(map(is_prime_factor, factors)):
            return factors
        return None

    @cached_property
    def curve(self) -> Poly:
        """The reduced double curve: ``resultant`` normalized when the total
        degrees of ``branches`` add up to its own, so that R is their product
        times a constant, else ``squarefree_part(resultant)``."""
        r, factors = self.resultant, self.branches
        if factors and sum(h.total_degree() for h in factors) == r.total_degree():
            return r.normalized()
        return squarefree_part(r)

    def factor(self, s: Poly) -> list[Poly]:
        """``branches`` when they exist; else, for s = R normalized, the kept
        ``factorization`` (a refusal raised again), else ``factor_components(s)``."""
        if self.branches is not None:
            return self.branches
        if s != self.resultant.normalized():
            return factor_components(s)
        if not isinstance(self.factorization, list):
            raise self.factorization
        return self.factorization


def corank(f: Germ) -> int:
    """2 - rank df(0): 0 when a Jacobian minor is a unit of the local ring,
    else 1 when some first partial derivative is one, that is, some
    component has a linear term, else 2."""
    if any(m.is_unit_local() for m in f.jacobian_minors):
        return 0
    if any((1, 0) in c.terms or (0, 1) in c.terms for c in f.components):
        return 1
    return 2


def crosscap_number(f: Germ) -> int:
    d = quotient_dim(f.jacobian_minors)
    if d == INFINITE:
        raise AnalysisError("not finitely determined along the cross-cap criterion")
    return d


def fold_normal_data(f: Germ) -> Poly | None:
    """p(u, v^2) = (odd part of f3) / v in (u, v) for f = (u, v^2, f3), or
    None if f1 != u, f2 != v^2 or f3 has no term of odd v-degree.  The
    target change Z -> Z - q(X, Y) with q(u, v^2) the even part of f3 takes
    f to the fold normal form (u, v^2, v*p(u, v^2))."""
    f1, f2, f3 = f.components
    u = Poly.variable("u", UV, f.field)
    v = Poly.variable("v", UV, f.field)
    if f1 != u or f2 != v * v:
        return None
    terms = {(a, b - 1): c for (a, b), c in f3.terms.items() if b % 2}
    if not terms:
        return None
    return Poly(UV, terms, f.field)


def _v_axis_part(g: Poly) -> Poly:
    """g(0, v) / v^k, k the order of g(0, v), in (u, v); zero when g(0, v) is."""
    terms = {b: c for (a, b), c in g.terms.items() if a == 0}
    k = min(terms, default=0)
    return Poly(UV, {(0, b - k): c for b, c in terms.items()}, g.field)


def multipoint_data(f: Germ) -> MultiPointData:
    if f.corank != 1:
        raise OverrideRequired("multiple-point spaces need a corank-1 germ; "
                               "supply the double_curve, twist and T overrides")
    f1, f2, f3 = f.components
    if f1 != Poly.variable("u", UV, f.field):
        raise OverrideRequired("corank-1 route needs coordinates with f1 = u; re-enter "
                               "the germ with f1 = u or supply the double_curve, twist "
                               "and T overrides")
    # f(0, v) = (0, f2(0, v), f3(0, v)): a common root v* != 0 of the two is
    # another preimage of 0, whose sheet R cannot tell from the germ's own
    a, b = (_v_axis_part(g) for g in (f2, f3))
    if not any(h.is_constant() and not h.is_zero() for h in (a, b)) and (
            a.is_zero() and b.is_zero() or not poly_gcd(a, b).is_constant()):
        raise OverrideRequired("f2(0, v) and f3(0, v) share a root v != 0, another "
                               "preimage of 0; supply the double_curve, components, "
                               "twist and T overrides")
    return MultiPointData(divided_difference(f2, "v", ("v1", "v2")),
                          divided_difference(f3, "v", ("v1", "v2")))


def is_local_unit_multiple(a: Poly, b: Poly) -> bool:
    """Whether b divides a and the quotient is a unit of the local ring, so
    that a and b have the same branches through the origin."""
    rest = try_divide(a, b)
    return rest is not None and rest.is_unit_local()


def double_curve_equation(f: Germ) -> Poly:
    """The reduced double curve D, normalized: the germ's
    ``MultiPointData.curve``, or else the ``double_curve`` override,
    checked against that curve when the germ has one."""
    d = f.overrides.double_curve
    if d is None:
        return f.multipoint.curve
    if squarefree_part(d) != d.normalized():
        raise AnalysisError("double_curve override is not squarefree")
    try:
        computed = f.multipoint.curve
    except OverrideRequired:  # f.multipoint: no multiple-point data
        return d.normalized()
    # the same rule as for components: d holds every branch of the
    # computed curve, and what it leaves out misses the origin
    if not is_local_unit_multiple(computed, d):
        raise AnalysisError("double_curve override is not the divided-difference "
                            "curve up to factors that miss the origin")
    return d.normalized()


def presented_triple_points(f2: Poly, f3: Poly):
    """T of the corank-1 germ (u, f2, f3), INFINITE, or None when neither
    rule below applies, by the first rule that does.

    Multiplicity 2: when f2 or f3 has a v^2 term, the fiber of f over 0,
    O/(u, f2, f3), has length 2.  The length of a fiber of a finite map is
    upper semicontinuous, so near 0 no fiber of a stable perturbation has
    three points, counted with multiplicity: T = 0.  These are exactly the
    germs whose ddP(0) or ddQ(0) is a unit.

    A monic cubic: when g, f2 or f3, is c*v^3 + a2(u)*v^2 + a1(u)*v + a0(u)
    with c a constant, Q[u, v] is free over Q[u, Y], Y = g/c, with basis 1,
    v, v^2, so with h the other component, Z*I - M presents f_*O_2 over
    O_3, M the matrix of multiplication by h.  Its Fitting ideal F_2,
    generated by the entries, defines the triple-point scheme, of length T
    (Mond-Pellikaan, Fitting ideals and multiple points of analytic
    mappings, LNM 1414, 1989).  Z = M_00 leaves T = dim O/(M_ij for
    i != j, M_11 - M_00, M_22 - M_00) in (u, Y).  The columns of M, h*1,
    h*v and h*v^2 in the basis 1, v, v^2, are remainders by g - c*Y in
    (u, v, Y) (``monic_remainder``): h's, then v times the column before."""
    if (0, 2) in f2.terms or (0, 2) in f3.terms:
        return 0
    for g, h in ((f2, f3), (f3, f2)):
        c = _constant_lead(g, "v") if g.degree_in("v") == 3 else None
        if c is not None:
            break
    else:
        return None
    uvy, uy, field = ("u", "v", "y"), ("u", "y"), g.field
    divisor = {(a, b, 0): x for (a, b), x in g.terms.items()}
    divisor[0, 0, 1] = -c
    divisor = Poly(uvy, divisor, field)
    lifted = {(a, b, 0): x for (a, b), x in h.terms.items()}
    M = []
    for _ in range(3):
        col = monic_remainder(Poly(uvy, lifted, field), divisor, "v")
        entries = [{}, {}, {}]
        for (a, b, y), x in col.terms.items():
            entries[b][a, y] = x
        M.append([Poly(uy, t, field) for t in entries])
        lifted = {(a, b + 1, y): x for (a, b, y), x in col.terms.items()}
    gens = [M[j][i] for i in range(3) for j in range(3) if i != j]
    gens += [M[1][1] - M[0][0], M[2][2] - M[0][0]]
    return quotient_dim(gens)


def triple_point_number(f: Germ) -> int:
    if f.overrides.T is not None:
        return f.overrides.T
    mp = f.multipoint  # refuses a germ with no corank-1 route
    T = presented_triple_points(*f.components[1:])
    if T is None:
        # D^3 in (u, v1, v2, v3) holds each triple point in its 6 orders
        d = quotient_dim(mp.triple_point_generators())
        if d != INFINITE and d % 6:
            raise AnalysisError(f"triple-point space dimension {d} is not divisible by 6")
        T = d if d == INFINITE else d // 6
    if T == INFINITE:
        raise AnalysisError("triple-point space is not zero-dimensional")
    return T
