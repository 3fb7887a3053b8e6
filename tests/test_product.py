"""S^2 x S^2, the product fixture: its free-loop and based-loop homology
against Kunneth applied to the count for one 2-sphere.

L(X x Y) = LX x LY and Omega(X x Y) = Omega X x Omega Y, so each group
comes from ``tensor_algebra_hochschild(1, ...)`` through
``reference.kunneth``.  The space is 1-reduced, no free pair collapses it,
and two of its simplices have a non-empty reduced coproduct, which no
built-in has.
"""

import pytest

import reference
from loophomology.complexes import build_complex_slice, complex_recipe
from loophomology.homalg import HomologyEntry, check_d_squared, homology_pass
from loophomology.rings import ZZ, parse_ring
from loophomology.presentation import aw_coproduct
from loophomology.simplicial import _collapse_free_pairs, builtin_space, validate

S2 = builtin_space("sphere2")
S2xS2 = reference.product(S2, S2)


def _kunneth(max_degree, ring):
    sphere = reference.tensor_algebra_hochschild(1, max_degree, ring)
    return reference.kunneth(sphere, sphere)


def test_the_product_is_1_reduced_and_has_no_free_pair():
    assert validate(S2xS2) == []
    assert S2xS2.is_one_reduced()
    assert _collapse_free_pairs(S2xS2) is S2xS2
    assert {d: len(ids) for d, ids in S2xS2.simplices.items()} == {0: 1, 2: 3, 3: 6, 4: 6}
    coproducts = [s for s in S2xS2.ids() if aw_coproduct(S2xS2, s, reduced=True)]
    assert len(coproducts) == 2


def test_cohoch_basis_sizes():
    sl = build_complex_slice(S2xS2, "cohoch", 5)
    assert [len(sl.bases[n]) for n in range(6)] == [1, 3, 18, 84, 384, 1764]


@pytest.mark.parametrize("ring", ["Z", "F2", "F3"])
def test_cohoch_matches_kunneth(ring):
    ring = parse_ring(ring)
    expected = _kunneth(5, ring)
    assert homology_pass(complex_recipe(S2xS2, "cohoch"), 5, ring) == expected


def test_kunneth_over_z_carries_the_tor_term():
    # one 2-sphere has H_2 = H_4 = Z + Z/2.  H_4 of the product takes its
    # five Z/2 from H_p (x) H_q; H_5 takes four from there and one from
    # Tor(H_2, H_2)
    _, _, _, _, h4, h5 = _kunneth(5, ZZ)
    assert (h4, h5) == (HomologyEntry(4, 5, (2,) * 5), HomologyEntry(5, 6, (2,) * 5))


def test_hochschild_of_cobar_matches_kunneth():
    recipe = complex_recipe(S2xS2, "hochschild-of-cobar")
    assert homology_pass(recipe, 5, ZZ) == _kunneth(5, ZZ)


def test_cobar_is_free_of_rank_n_plus_1():
    # H_*(Omega S^2) = Z in each degree, so H_n(Omega S^2 x Omega S^2) = Z^(n+1)
    expected = [HomologyEntry(n, n + 1) for n in range(7)]
    assert homology_pass(complex_recipe(S2xS2, "cobar"), 6, ZZ) == expected


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the hat models read a degenerate edge as zero, not as the unit",
)
def test_hat_cobar_squares_to_zero():
    # fails today on 14 generators, the first ('s1s0(s)*s3s2(s)',) in degree 3
    assert check_d_squared(build_complex_slice(S2xS2, "hat-cobar", 4)) == []
