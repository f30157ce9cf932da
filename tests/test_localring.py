import importlib.util
import math
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

from milnorsig import germs, localring
from milnorsig.corpus import H, corpus
from milnorsig.curves import decompose
from milnorsig.fields import QQ, parse_field
from milnorsig.germfile import load_germ
from milnorsig.germs import (Germ, OverrideRequired, double_curve_equation,
                             fold_normal_data, multipoint_data, triple_point_number)
from milnorsig.localring import (INFINITE, _staircase_count,
                                 intersection_multiplicity, milnor_number,
                                 mora_normal_form, quotient_dim, standard_basis)
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly, PolyError
from milnorsig.signature import analyze
from test_curves import target_changed_corpus8

UV = ("u", "v")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def P(src, field=QQ):
    return parse_poly(src, UV, field)


def leading_ideal(basis):
    """The minimal exponents among the leading exponents of ``basis``."""
    leads = [g.leading()[0] for g in basis]
    return list(dict.fromkeys(e for e in leads if not any(
        f != e and all(a <= b for a, b in zip(f, e)) for f in leads)))


def test_mora_normal_form():
    assert mora_normal_form(P("u^2"), [P("u")]).is_zero()
    assert mora_normal_form(P("v"), [P("u")]) == P("v")
    # u - u^2 = u*(1 - u) with 1 - u a local unit, so u is in the ideal
    assert mora_normal_form(P("u"), [P("u - u^2")]).is_zero()


def test_mora_kills_explicit_combinations():
    rng = random.Random(2)
    # reduction to zero for ideal members needs a standard basis
    basis = standard_basis([P("u^2 + v^3"), P("u*v")])
    for _ in range(10):
        f = Poly.zero(UV, QQ)
        for g in basis:
            coeff = Poly(UV, {(rng.randint(0, 2), rng.randint(0, 2)):
                              QQ.from_rational(rng.randint(-3, 3))}, QQ)
            f = f + coeff * g
        if not f.is_zero():
            assert mora_normal_form(f, basis).is_zero()


def test_standard_basis_examples():
    sb = standard_basis([P("u"), P("v")])
    assert sorted(leading_ideal(sb)) == [(0, 1), (1, 0)]
    sb = standard_basis([P("2*v"), P("u"), P("-2*v^2")])
    assert sorted(leading_ideal(sb)) == [(0, 1), (1, 0)]
    sb = standard_basis([P("v^2 + u^2"), P("2*u")])
    assert sorted(leading_ideal(sb)) == [(0, 2), (1, 0)]


def test_quotient_dim_examples():
    assert quotient_dim([P("u"), P("v")]) == 1
    assert quotient_dim([P("u^2"), P("v^3")]) == 6
    for k in (2, 3, 5):
        gens = [parse_poly(f"u + {3 * k - 1}*v^{3 * k - 2}", UV, QQ),
                P("v^2"), P("v^3")]
        assert quotient_dim(gens) == 2
    assert quotient_dim([P("u")]) == INFINITE


def test_quotient_dim_matches_staircase_on_random_monomial_ideals():
    rng = random.Random(31)
    for _ in range(50):
        nv = rng.choice([2, 3])
        exps = []
        for i in range(nv):
            e = [0] * nv
            e[i] = rng.randint(1, 4)
            exps.append(tuple(e))
        for _ in range(rng.randint(0, 3)):
            exps.append(tuple(rng.randint(0, 4) for _ in range(nv)))
        vars_ = tuple("xyz"[:nv])
        gens = [Poly(vars_, {e: QQ.one()}, QQ) for e in exps]
        expected = sum(
            1 for m in product(range(10), repeat=nv)
            if not any(all(a <= b for a, b in zip(e, m)) for e in exps))
        assert quotient_dim(gens) == expected


def test_quotient_dim_invariance():
    rng = random.Random(6)
    base = [P("u^2 + v^3"), P("u*v^2")]
    d = quotient_dim(base)
    assert d not in (0, INFINITE)
    # permute, rescale, add a multiple of another generator
    assert quotient_dim(list(reversed(base))) == d
    assert quotient_dim([base[0].scale(7), base[1]]) == d
    mult = Poly(UV, {(1, 1): QQ.from_rational(3)}, QQ)
    assert quotient_dim([base[0] + mult * base[1], base[1]]) == d


def rand_branch(rng, field):
    # a smooth branch through the origin: u - c*v^m or v - c*u^m
    c = field.from_rational(rng.choice([-2, -1, 1, 2, 3]))
    m = rng.randint(1, 3)
    a, b = ("u", "v") if rng.random() < 0.5 else ("v", "u")
    lead = Poly.variable(a, UV, field)
    tail = (Poly.variable(b, UV, field) ** m).scale(c)
    return lead - tail


def test_intersection_multiplicity_examples():
    Qi = parse_field("Q(i)")
    assert intersection_multiplicity(parse_poly("u - i*v", UV, Qi),
                                     parse_poly("u + i*v", UV, Qi)) == 1
    Qz = parse_field("Q(zeta3)")
    assert intersection_multiplicity(parse_poly("u - zeta3*v^4", UV, Qz),
                                     parse_poly("u - zeta3^2*v^4", UV, Qz)) == 4
    assert intersection_multiplicity(P("u + v^2"), P("u^2 + v")) == 1
    assert intersection_multiplicity(P("u"), P("u*v")) == INFINITE


def test_intersection_multiplicity_symmetry_and_additivity():
    rng = random.Random(77)
    done = 0
    while done < 30:
        h1, h1p, h2 = (rand_branch(rng, QQ) for _ in range(3))
        if (h1.normalized() == h2.normalized()
                or h1p.normalized() == h2.normalized()):
            continue
        a = intersection_multiplicity(h1, h2)
        assert intersection_multiplicity(h2, h1) == a
        b = intersection_multiplicity(h1p, h2)
        assert intersection_multiplicity(h1 * h1p, h2) == a + b
        done += 1


def test_milnor_number_examples():
    assert milnor_number(P("u^2 + v^2")) == 1
    assert milnor_number(P("v^2 + u^3")) == 2
    Qz = parse_field("Q(zeta3)")
    assert milnor_number(parse_poly("u^2 + u*v^4 + v^8", UV, Qz)) == 7


def test_milnor_number_branch_oracle():
    # mu = 2*delta - r + 1 for curves assembled from distinct smooth branches
    rng = random.Random(15)
    done = 0
    while done < 10:
        branches = [rand_branch(rng, QQ) for _ in range(rng.randint(2, 3))]
        norm = {str(b.normalized()) for b in branches}
        if len(norm) != len(branches):
            continue
        delta = 0
        ok = True
        for i in range(len(branches)):
            for j in range(i + 1, len(branches)):
                m = intersection_multiplicity(branches[i], branches[j])
                if m == INFINITE:
                    ok = False
                    break
                delta += m
            if not ok:
                break
        if not ok:
            continue
        prod = branches[0]
        for b in branches[1:]:
            prod = prod * b
        assert milnor_number(prod) == 2 * delta - len(branches) + 1
        done += 1


def test_unit_generator_gives_whole_ring():
    # 1 + v is a unit of the local ring, so the ideal is all of O; only
    # quotient_dim decides units, and the general staircase count of the
    # leading ideal {0} is 0 because every bound is 0
    I = [P("u"), P("1 + v"), P("v^2")]
    assert leading_ideal(standard_basis(I)) == [(0, 0)]
    assert _staircase_count([(0, 0)], 2) == 0
    assert quotient_dim(I) == 0


def test_quotient_dim_refusals_and_early_stop():
    # the zero ideal: dim O/(0) is infinite
    for gens in ([], [Poly.zero(UV, QQ)], (Poly.zero(UV, QQ) for _ in range(2))):
        assert quotient_dim(gens) == INFINITE
    qi = parse_field("Q(i)")
    for other in (parse_poly("v", ("u", "v", "w"), QQ), P("v", qi)):
        with pytest.raises(PolyError, match="generators disagree on variables or field"):
            quotient_dim([P("u"), Poly.zero(UV, QQ), other])

    # the unit 1 + v ends the count: nothing after it is read
    def generators():
        yield P("u")
        yield P("1 + v")
        raise AssertionError("read past a unit")

    assert quotient_dim(generators()) == 0


def test_fold_triple_point_ideal_is_whole_ring():
    # on f = (u, v^2, v*p), ddP = 1: a fold germ has no triple points
    folds = [f for f in corpus(8) if fold_normal_data(f) is not None]
    assert len(folds) >= 20
    for f in folds:
        gens = multipoint_data(f).triple_point_generators()
        assert any(g.is_unit_local() and g.total_degree() == 0 for g in gens), f.name
        assert triple_point_number(f) == 0, f.name


def test_no_caller_hands_mora_a_unit(monkeypatch, tmp_path):
    # standard_basis has no unit exit: quotient_dim returns 0 at the first
    # unit, elimination keeps every constant term, and Mora's normal forms
    # of a proper ideal stay inside it
    received, original = [], localring.standard_basis

    def checked(gens):
        assert not any(g.is_unit_local() for g in gens), gens
        sb = original(gens)
        assert not any(sum(g.leading()[0]) == 0 for g in sb), gens
        received.append(gens)
        return sb
    monkeypatch.setattr(localring, "standard_basis", checked)
    spec = importlib.util.spec_from_file_location("germgen", PERFBENCH / "germgen.py")
    germgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(germgen)
    workload_germs = [load_germ(pathlib.Path(path).read_text())[0]
                      for workload in germgen.WORKLOADS
                      for _, path in germgen.generate(workload, 5, tmp_path / workload)]
    for f in corpus(10) + target_changed_corpus8() + workload_germs:
        try:
            analyze(f)
        except OverrideRequired:  # target-changed germs with no overrides
            pass
    # 2 on corpus(10), 38 on the target changes, 2 on small-germs
    assert len(received) >= 40


def mora_dim(I):
    """dim O/I from Mora's standard basis of I itself, with no elimination."""
    gens = [g for g in I if not g.is_zero()]
    return _staircase_count(leading_ideal(standard_basis(gens)), len(I[0].vars))


def test_elimination_edge_cases():
    cases = [
        ([P("u"), P("v")], 1),
        ([P("u - v^2"), P("v")], 1),
        ([P("u - v"), P("u - v")], INFINITE),
        # u*v keeps the first generator from being a pivot for u; their
        # difference u*v and u = -v^2 give v^3
        ([P("u + u*v + v^2"), P("u + v^2")], 3),
        # u = v^2 turns the second generator into the constant 1; a
        # substitution keeps constant terms, so it was a unit from the start
        ([P("u - v^2"), P("1 + u - v^2")], 0),
    ]
    for gens, want in cases:
        assert quotient_dim(gens) == want, gens
        assert mora_dim(gens) == want, gens


def test_one_variable_left_takes_the_least_order(monkeypatch):
    # Q{x} is a discrete valuation ring: once elimination leaves one
    # variable, the generator of least order generates the ideal
    cases = [([P("u + v^4"), P("v^3 + v^5"), P("v^4 - v^3")], 3),
             ([P("u - v^2"), P("u*v^3 + v^7")], 5),
             ([P("u + v^2"), P("u^2 + v^3")], 3)]
    for gens, want in cases:
        assert mora_dim(gens) == want, gens

    def no_standard_basis(gens):
        raise AssertionError("standard basis in one variable")

    monkeypatch.setattr(localring, "standard_basis", no_standard_basis)
    for gens, want in cases:
        assert quotient_dim(gens) == want, gens


def test_elimination_matches_mora_on_ideals_with_a_linear_generator():
    # c*x_i + h(other variables), and one generator for each other variable
    # with a pure power of it, so that most ideals are zero-dimensional
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    XYZ = ("x", "y", "z")
    coeffs = st.fractions(-4, 4, max_denominator=3).filter(bool)
    exps = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: 0 < sum(e) <= 3)
    polys = st.dictionaries(exps, coeffs, max_size=3)
    finite = []

    def check(i, c, h, others, powers):
        def unit(j, n=1):
            return tuple(n * (k == j) for k in range(3))

        gens = [{unit(i): c, **{e[:i] + (0,) + e[i + 1:]: a for e, a in h.items()
                                if sum(e) > e[i]}}]
        for j, (g, n) in enumerate(zip(others, powers)):
            gens.append({unit((i + 1 + j) % 3, n): Fraction(1), **g})
        I = [Poly(XYZ, {e: QQ.from_rational(a) for e, a in g.items()}, QQ)
             for g in gens]
        d = quotient_dim(I)
        assert d == mora_dim(I), I
        if d not in (0, INFINITE):
            finite.append(d)

    pair = st.lists(st.integers(1, 3), min_size=2, max_size=2)
    run = hyp.given(st.integers(0, 2), coeffs, polys,
                    st.lists(polys, min_size=2, max_size=2), pair)(check)
    hyp.settings(max_examples=40, deadline=None, database=None, derandomize=True)(run)()
    assert len(finite) >= 20


def test_elimination_matches_mora_on_every_corpus_ideal(monkeypatch):
    # every ideal that analyze hands to quotient_dim over the corpus (triple
    # points, cross-caps, intersections of branches, Jacobians of D) and the
    # ideal of P, Q, ddP and ddQ of every corank-1 germ
    seen = []

    def recording(I):
        I = list(I)
        seen.append(I)
        return quotient_dim(I)

    monkeypatch.setattr(localring, "quotient_dim", recording)
    monkeypatch.setattr(germs, "quotient_dim", recording)
    for f in corpus(10):
        analyze(f)
    # the triple-point ideals, which T reads only where no rule of
    # presented_triple_points applies
    seen += [list(multipoint_data(f).triple_point_generators())
             for f in corpus(10) if f.corank == 1]
    assert sum(len(I[0].vars) == 4 for I in seen) >= 30
    for I in seen:
        assert quotient_dim(I) == mora_dim(I), I


def test_elimination_finishes_germs_that_stalled_mora(monkeypatch):
    # A-equivalent to H_3 and H_4, so T = 2 and T = 3; Mora on the
    # uneliminated triple-point ideals runs far past this budget.  T of the
    # first comes from its monic cubic f3, so the ideals are also asked for
    # directly
    monkeypatch.setattr(localring, "STEP_CAP", 200)
    h3, h4 = H(3), H(4)
    field = h3.field
    u, v = (Poly.variable(x, UV, field) for x in UV)
    moved = Poly.constant(2, UV, field) * v + u
    f = Germ(tuple(c.substitute("v", moved) for c in h3.components), field)
    assert triple_point_number(f) == 2
    assert quotient_dim(multipoint_data(f).triple_point_generators()) == 12
    X, Y, Z = h4.components
    g = Germ((X, Z + Y, Y.scale(3) - Z), field)
    assert triple_point_number(g) == 3
    assert quotient_dim(multipoint_data(g).triple_point_generators()) == 18


def test_monic_cubic_finishes_germs_that_stall_the_generators(monkeypatch):
    # H_k under v -> 4u - 3v - 2/3 u^2: f3 is -27 v^3 plus lower terms, and
    # the triple-point ideal ran past 60 s for each k
    monkeypatch.setattr(localring, "STEP_CAP", 200)
    for k in range(2, 6):
        h = H(k)
        image = parse_poly("4*u - 3*v - 2/3*u^2", UV, h.field)
        f = Germ(tuple(c.substitute("v", image) for c in h.components), h.field)
        assert triple_point_number(f) == k - 1


def fulton_intersection(F: Poly, G: Poly, budget: int = 100_000):
    """I(F, G) at the origin of the plane (x, y) = (u, v) by Fulton's
    algorithm (Algebraic Curves, section 3.3), from the axioms alone: no
    standard basis, no normal form, no elimination.  With r and s the
    degrees of F(x, 0) and G(x, 0) (0 for the zero polynomial), ordered so
    that r <= s:
    - r = 0: y | F, and I(yH, G) = I(y, G) + I(H, G) with I(y, G) the order
      of G(x, 0) in x (infinite when y | G too);
    - r > 0: I(F, G) = I(F, G - (lc G(x, 0) / lc F(x, 0)) x^(s-r) F), whose
      second argument has a smaller s."""
    total = 0
    for _ in range(budget):
        if F.is_zero() or G.is_zero():
            return math.inf
        if F.is_unit_local() or G.is_unit_local():
            return total
        on_axis = [{a: c for (a, b), c in p.terms.items() if b == 0} for p in (F, G)]
        r, s = (max(axis, default=0) for axis in on_axis)
        if r > s:
            F, G, on_axis, r, s = G, F, on_axis[::-1], s, r
        if r == 0:
            if not on_axis[1]:
                return math.inf
            total += min(on_axis[1])
            F = Poly(F.vars, {(a, b - 1): c for (a, b), c in F.terms.items()}, F.field)
            continue
        lead = on_axis[1][s] * on_axis[0][r].inverse()
        G = G - Poly(F.vars, {(s - r, 0): lead}, F.field) * F
    raise AssertionError("Fulton's algorithm ran past its budget")


def test_fulton_oracle_examples():
    Qi = parse_field("Q(i)")
    assert fulton_intersection(P("u^2 - v^3"), P("u^3 - v^2")) == 4
    assert fulton_intersection(P("v - u^2"), P("v")) == 2
    assert fulton_intersection(P("u + 1"), P("v")) == 0
    assert fulton_intersection(P("u*(u + v)"), P("u*v")) == math.inf
    assert fulton_intersection(P("u - i*v^4", Qi), P("u + i*v^4", Qi)) == 4
    # the Milnor number of the A_k curve v^2 + u^(k+1) is k
    assert fulton_intersection(P("2*v"), P("7*u^6")) == 6


def test_fulton_matches_intersection_multiplicity_on_corpus_branches():
    pairs = 0
    for f in corpus(10):
        comps = decompose(double_curve_equation(f), f.overrides.components)
        for i, h in enumerate(comps):
            for g in comps[i + 1:]:
                assert fulton_intersection(h, g) == intersection_multiplicity(h, g), f.name
                pairs += 1
    assert pairs >= 49


def test_fulton_matches_quotient_dim_on_corpus_milnor_ideals():
    # the Jacobian ideal of the double curve D, and of each of its branches
    # that is not smooth: quotient_dim eliminates a linear variable first
    # wherever a partial derivative is c*x + h
    ideals = []
    for f in corpus(10):
        curve = double_curve_equation(f)
        for h in [curve] + decompose(curve, f.overrides.components):
            jac = [h.derivative(x) for x in UV]
            if all(not p.is_zero() for p in jac):
                ideals.append((f.name, jac))
    assert len(ideals) >= 107
    for name, jac in ideals:
        assert fulton_intersection(*jac) == quotient_dim(jac), name
