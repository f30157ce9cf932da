import random
from itertools import product

from milnorsig.corpus import corpus
from milnorsig.fields import QQ, parse_field
from milnorsig.germs import fold_normal_data, multipoint_data, triple_point_number
from milnorsig.localring import (INFINITE, LocalIdeal, intersection_multiplicity,
                                 milnor_number, mora_normal_form, quotient_dim,
                                 standard_basis)
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly

UV = ("u", "v")


def P(src, field=QQ):
    return parse_poly(src, UV, field)


def test_mora_normal_form():
    assert mora_normal_form(P("u^2"), [P("u")]).is_zero()
    assert mora_normal_form(P("v"), [P("u")]) == P("v")
    # u - u^2 = u*(1 - u) with 1 - u a local unit, so u is in the ideal
    assert mora_normal_form(P("u"), [P("u - u^2")]).is_zero()


def test_mora_kills_explicit_combinations():
    rng = random.Random(2)
    # reduction to zero for ideal members needs a standard basis
    basis = standard_basis(LocalIdeal([P("u^2 + v^3"), P("u*v")])).basis
    for _ in range(10):
        f = Poly.zero(UV, QQ)
        for g in basis:
            coeff = Poly(UV, {(rng.randint(0, 2), rng.randint(0, 2)):
                              QQ.from_rational(rng.randint(-3, 3))}, QQ)
            f = f + coeff * g
        if not f.is_zero():
            assert mora_normal_form(f, basis).is_zero()


def test_standard_basis_examples():
    sb = standard_basis(LocalIdeal([P("u"), P("v")]))
    assert sorted(sb.leading_ideal) == [(0, 1), (1, 0)]
    sb = standard_basis(LocalIdeal([P("2*v"), P("u"), P("-2*v^2")]))
    assert sorted(sb.leading_ideal) == [(0, 1), (1, 0)]
    sb = standard_basis(LocalIdeal([P("v^2 + u^2"), P("2*u")]))
    assert sorted(sb.leading_ideal) == [(0, 2), (1, 0)]


def test_quotient_dim_examples():
    assert quotient_dim(LocalIdeal([P("u"), P("v")])) == 1
    assert quotient_dim(LocalIdeal([P("u^2"), P("v^3")])) == 6
    for k in (2, 3, 5):
        gens = [parse_poly(f"u + {3 * k - 1}*v^{3 * k - 2}", UV, QQ),
                P("v^2"), P("v^3")]
        assert quotient_dim(LocalIdeal(gens)) == 2
    assert quotient_dim(LocalIdeal([P("u")])) == INFINITE


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
        assert quotient_dim(LocalIdeal(gens)) == expected


def test_quotient_dim_invariance():
    rng = random.Random(6)
    base = [P("u^2 + v^3"), P("u*v^2")]
    d = quotient_dim(LocalIdeal(base))
    assert d not in (0, INFINITE)
    # permute, rescale, add a multiple of another generator
    assert quotient_dim(LocalIdeal(list(reversed(base)))) == d
    assert quotient_dim(LocalIdeal([base[0].scale(7), base[1]])) == d
    mult = Poly(UV, {(1, 1): QQ.from_rational(3)}, QQ)
    assert quotient_dim(LocalIdeal([base[0] + mult * base[1], base[1]])) == d


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
    # 1 + v is a unit of the local ring, so the ideal is all of O
    I = LocalIdeal([P("u"), P("1 + v"), P("v^2")])
    sb = standard_basis(I)
    assert sb.leading_ideal == [(0, 0)]
    assert len(sb.basis) == 1 and sb.basis[0].is_unit_local()
    assert quotient_dim(I) == 0


def test_fold_triple_point_ideal_is_whole_ring():
    # on f = (u, v^2, v*p), ddP = 1: a fold germ has no triple points
    folds = [f for f in corpus(8) if fold_normal_data(f) is not None]
    assert len(folds) >= 20
    for f in folds:
        ideal = multipoint_data(f).D3_ideal
        assert any(g.is_unit_local() and g.total_degree() == 0
                   for g in ideal.generators), f.name
        assert triple_point_number(f) == 0, f.name
