"""The top Ext module: vanishing, finite length, and the Rao dual placement."""

from foliations.ext import top_ext
from foliations.groebner import Ideal
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing

R = PolyRing(4)
Z = R.variables()


def test_complete_intersection_has_no_ext3():
    # length 2, so Ext^3 vanishes; the top Ext^2 is supported on the line
    res = free_resolution(Ideal(R, [Z[0], Z[1]]))
    assert res.length == 2
    assert top_ext(res).krull_dim == 2


def test_two_skew_lines_rao_dual():
    res = free_resolution(Ideal(R, [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]]))
    assert res.length == 3
    e3 = top_ext(res)
    assert e3.shift == -4
    assert e3.krull_dim == 0
    assert e3.finite_support() == {-4: 1}


def test_six_edges_ext3_vanishes():
    gens = []
    for i in range(4):
        p = R.one()
        for j in range(4):
            if j != i:
                p = p * Z[j]
        gens.append(p)
    assert free_resolution(Ideal(R, gens)).length == 2


def test_ext_beyond_resolution_length_is_zero():
    # a hypersurface resolves in one step, so only Ext^1 = (R/(z0))(1) is nonzero
    res = free_resolution(Ideal(R, [Z[0]]))
    assert res.length == 1
    e1 = top_ext(res)
    assert e1.shift == -1
    assert e1.krull_dim == 3


def test_embedded_point_shows_in_ext4_not_ext3():
    # the embedded point makes the resolution run to length 4: the top Ext
    # is Ext^4, of finite length, and the ideal is not saturated
    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    res = free_resolution(I)
    assert res.length == 4
    e4 = top_ext(res)
    assert e4.krull_dim == 0 and e4.finite_support()


def test_isolated_point_union_line_has_ext3_of_positive_dimension():
    # a line union a disjoint point: a codim-3 associated prime makes the
    # Ext^3 support positive dimensional, which is what the curve test keys on
    from foliations.saturation import intersect

    line = Ideal(R, [Z[0], Z[1]])
    point = Ideal(R, [Z[0], Z[2], Z[3]])
    res = free_resolution(intersect(line, point))
    assert res.length == 3
    assert top_ext(res).krull_dim == 1
