import pytest
from hypothesis import given, settings

from anosovlab.exact import GradedZModule
from anosovlab.homology import (
    GenusTooSmall,
    MalformedTable,
    circle_bundle_cohomology,
    hh_c_ranks,
    hochschild_dual_numbers,
    mapping_torus_cohomology,
    product_admissibility,
    sh_mcduff,
    sh_torus_bundle,
)
from anosovlab.oracles import (
    circle_bundle_cellular_cohomology,
    mapping_torus_cellular_cohomology,
)
from anosovlab.toral import NotHyperbolic, parse_matrix
from strategies import hyperbolic_matrices

BATTERY = [parse_matrix(s) for s in
           ("2 1 1 1", "1 1 1 2", "3 1 2 1", "3 2 1 1", "5 2 2 1")]


def test_mapping_torus_cat():
    t = mapping_torus_cohomology(parse_matrix("2 1 1 1"))
    assert t == GradedZModule({0: (1, ()), 1: (1, ()), 2: (1, ()), 3: (1, ())})


def test_mapping_torus_trace4():
    t = mapping_torus_cohomology(parse_matrix("3 1 2 1"))
    assert t.free_rank(2) == 1 and t.torsion(2) == (2,)
    assert t.free_rank(0) == 1


def test_mapping_torus_torsion_order_battery():
    for A in BATTERY:
        t = mapping_torus_cohomology(A)
        order = 1
        for c in t.torsion(2):
            order *= c
        assert order == abs(A.trace() - 2)
        assert all(t.free_rank(k) == t.free_rank(3 - k) for k in range(4))
        assert t.euler_characteristic() == 0


def test_mapping_torus_vs_cellular_oracle():
    for A in BATTERY:
        assert mapping_torus_cohomology(A) == mapping_torus_cellular_cohomology(A)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices())
def test_mapping_torus_matches_cellular_oracle_property(A):
    assert mapping_torus_cohomology(A) == mapping_torus_cellular_cohomology(A)


def test_mapping_torus_not_hyperbolic():
    with pytest.raises(NotHyperbolic):
        mapping_torus_cohomology(parse_matrix("1 1 0 1"))


def test_circle_bundle():
    t = circle_bundle_cohomology(2)
    assert t.free_rank(2) == 4 and t.torsion(2) == (2,)
    assert circle_bundle_cohomology(3).free_rank(1) == 6
    assert t.euler_characteristic() == 0
    with pytest.raises(GenusTooSmall):
        circle_bundle_cohomology(1)


def test_circle_bundle_vs_cellular_oracle():
    for g in (2, 3, 4):
        assert circle_bundle_cohomology(g) == circle_bundle_cellular_cohomology(g)


def test_hochschild_structure():
    t = hochschild_dual_numbers(12)
    # degree -1 row is empty
    assert all(i >= 0 for (i, j) in t.entries)
    # HH_0 = Z[x]/x^2: free rank 2 split over internal degrees 0, 1
    assert t.entries[(0, 0)] == (1, ())
    assert t.entries[(0, 1)] == (1, ())
    # odd rows carry Z + Z/2, even rows >= 2 carry Z
    assert t.entries[(3, 3)] == (1, ())
    assert t.entries[(3, 4)] == (0, (2,))
    assert t.entries[(4, 5)] == (1, ())
    assert (2, 2) not in t.entries
    assert t.total_degree_support() == [0, 1]


def test_hochschild_monotone_rank():
    assert hochschild_dual_numbers(50).total_rank() > \
        hochschild_dual_numbers(25).total_rank()
    ranks = [hochschild_dual_numbers(N).total_rank() for N in range(1, 20)]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_hh_c_scaling():
    single = hochschild_dual_numbers(15)
    assert hh_c_ranks(3, 15) == single.scaled(3)
    assert hh_c_ranks(0, 15).entries == {}
    assert hh_c_ranks(3, 15).total_rank() == 3 * single.total_rank()


def test_sh_torus_bundle_window():
    A = parse_matrix("2 1 1 1")
    rep0 = sh_torus_bundle(A, 0)
    assert rep0["plus_fiber_count"] == 0 == rep0["minus_fiber_count"]
    assert rep0["middle"] == mapping_torus_cohomology(A)
    rep = sh_torus_bundle(A, 5)
    from anosovlab.chords import enumerate_rational_fibers
    from anosovlab.toral import eigen_data

    H = eigen_data(A)
    assert rep["plus_fiber_count"] == len(enumerate_rational_fibers(H, +1, 5))
    assert rep["minus_fiber_count"] == len(enumerate_rational_fibers(H, -1, 5))
    assert rep["plus_block"].free_rank(0) == rep["plus_fiber_count"]


def test_sh_mcduff():
    rep = sh_mcduff(2, 0, ["a1"])
    assert rep["negative_block"].entries == {}
    rep2 = sh_mcduff(2, 2, [])
    middle = rep2["middle"]
    negative = rep2["negative_block"]
    assert (sum(map(negative.free_rank, negative.degrees()))
            == 2 * sum(map(middle.free_rank, middle.degrees())))
    assert rep2["negative_block"].torsion(2) == middle.torsion(2) * 2
    assert rep2["positive_block"].entries == {}
    rep3 = sh_mcduff(2, 1, ["a1", "b1", "a1b1"])
    assert rep3["positive_block"].free_rank(0) == 3
    with pytest.raises(GenusTooSmall):
        sh_mcduff(1, 1, [])


def test_product_admissibility_accepts_exactly_seven():
    comps = ("-", "0", "+")
    allowed = []
    rejected = []
    for a in comps:
        for b in comps:
            for c in comps:
                rep = product_admissibility({"product_support": [(a, b, c)]})
                (allowed if rep["admissible"] else rejected).append((a, b, c))
    assert len(allowed) == 7 and len(rejected) == 20
    assert ("-", "+", "0") in rejected
    assert ("+", "+", "0") in rejected
    assert ("0", "0", "0") in allowed


def test_product_admissibility_malformed():
    with pytest.raises(MalformedTable):
        product_admissibility({"product_support": [("x", "0", "0")]})
    with pytest.raises(MalformedTable):
        product_admissibility([])
    with pytest.raises(MalformedTable):
        product_admissibility({"product_support": [], "components": {"0": {}}})


def test_fiber_product_axioms():
    a0 = GradedZModule({0: (1, ()), 1: (1, ())})
    im = GradedZModule({0: (2, (5,))})
    ip = GradedZModule({1: (3, ())})
    rep = product_admissibility(
        {"product_support": [("0", "0", "0")],
         "components": {"-": im, "0": a0, "+": ip}}
    )
    ax = rep["axioms"]
    assert ax["ideals_disjoint"]
    assert ax["quotient_minus_is_A0"] and ax["quotient_plus_is_A0"]
