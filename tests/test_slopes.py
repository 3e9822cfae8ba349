"""Exact slope arithmetic for direct sums."""

from fractions import Fraction

import pytest

from radialma import (
    BundleSpec,
    ConfigurationError,
    destabilizes,
    line_tangent,
    normalized_slope,
    tangent_on_line,
)


def test_restricted_tangent_slope():
    for n in (2, 3, 5, 10):
        assert normalized_slope(tangent_on_line(n)) == Fraction(n + 1, n)


def test_line_tangent_slope_is_two():
    assert normalized_slope(line_tangent()) == 2


def test_trivial_sum_has_zero_slope():
    assert normalized_slope(BundleSpec(((Fraction(0), 7),))) == 0


def test_destabilization_range():
    # the degree-2 piece destabilizes the restricted tangent bundle for
    # every n from 2 to 64, exactly
    for n in range(2, 65):
        assert destabilizes(line_tangent(), tangent_on_line(n))
        assert normalized_slope(line_tangent()) > normalized_slope(tangent_on_line(n))


def test_dimension_one_has_no_proper_subbundle():
    with pytest.raises(ConfigurationError):
        destabilizes(line_tangent(), tangent_on_line(1))


def test_equal_slopes_do_not_destabilize():
    sub = BundleSpec(((Fraction(1), 1),))
    ambient = BundleSpec(((Fraction(1), 1), (Fraction(1), 1)))
    assert not destabilizes(sub, ambient)


def test_scaling_invariance():
    def scaled(bundle, factor):
        return BundleSpec(tuple((d * factor, r) for d, r in bundle.summands))

    for factor in (2, 3, 12):
        for n in (2, 5, 9):
            amb = tangent_on_line(n)
            sub = line_tangent()
            assert destabilizes(scaled(sub, factor), scaled(amb, factor)) == \
                destabilizes(sub, amb)
            a = normalized_slope(scaled(amb, factor)) / factor
            assert a == normalized_slope(amb)


def test_fractional_degrees_exact():
    b = BundleSpec(((Fraction(1, 3), 2), (Fraction(1, 7), 1)))
    assert b.degree == Fraction(17, 21)
    assert normalized_slope(b) == Fraction(17, 63)


def test_rank_validation():
    with pytest.raises(ConfigurationError):
        BundleSpec(((Fraction(1), 0),))
    with pytest.raises(ConfigurationError):
        BundleSpec(())
