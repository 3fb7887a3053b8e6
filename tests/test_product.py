"""S^2 x S^2, the product fixture, and S^2 x S^3: their free-loop and
based-loop homology against Kunneth applied to the counts for the spheres.

L(X x Y) = LX x LY and Omega(X x Y) = Omega X x Omega Y, so each group
comes from ``tensor_algebra_hochschild(1, ...)`` through
``reference.kunneth``, with a letter of degree k for S^(k+1).  S^2 x S^2
is 1-reduced, no free pair collapses it, and two of its simplices have a
non-empty reduced coproduct, which no built-in has.
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
S2xS3 = reference.product(S2, builtin_space("sphere3"))

# the hat models' known defect; each xfail below flips the day it is mended
_HAT_UNIT = "the hat models read a degenerate edge as zero, not as the unit"


def _kunneth(max_degree, ring, letter_degrees=(1, 1)):
    """Kunneth applied to the counts for two spheres, S^(k+1) for a letter
    of degree k."""
    x, y = (
        reference.tensor_algebra_hochschild(1, max_degree, ring, letter_degree=k)
        for k in letter_degrees
    )
    return reference.kunneth(x, y)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_HAT_UNIT)
def test_hat_cobar_squares_to_zero():
    # fails today on 14 generators, the first ('s1s0(s)*s3s2(s)',) in degree 3
    assert check_d_squared(build_complex_slice(S2xS2, "hat-cobar", 4)) == []


@pytest.mark.parametrize("complex_name", ["cohoch", "hochschild-of-cobar"])
@pytest.mark.parametrize("ring", ["Z", "F2", "F3"])
def test_s2_x_s3_free_loops_match_kunneth(ring, complex_name):
    ring = parse_ring(ring)
    expected = _kunneth(5, ring, letter_degrees=(1, 2))
    assert homology_pass(complex_recipe(S2xS3, complex_name), 5, ring) == expected


def test_s2_x_s3_cobar_has_rank_half_n_plus_1():
    # H_*(Omega S^3) = Z in each even degree, so H_n = Z^(floor(n/2) + 1)
    expected = [HomologyEntry(n, n // 2 + 1) for n in range(7)]
    assert homology_pass(complex_recipe(S2xS3, "cobar"), 6, ZZ) == expected


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_HAT_UNIT)
@pytest.mark.parametrize("complex_name", ["hat-cobar", "hat-cohoch"])
def test_s2_x_s3_hat_complexes_square_to_zero(complex_name):
    # fails today on 26 (hat-cobar) and 34 (hat-cohoch) generators, the
    # first ('s1s0(s)*s2(s)',) in degree 3
    assert check_d_squared(build_complex_slice(S2xS3, complex_name, 4)) == []
