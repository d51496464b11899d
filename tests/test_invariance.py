"""The coincidence count as an invariant: properties over planted points.

A planted point is x = k xi k^-1, with xi a bordered normal form carrying
exactly l coincidences and k a random block-diagonal element.  Its count must
come back as l, and must not move under a second conjugation, under the
involution theta, or under scaling x -> c x once the matching radius is
scaled by |c|.  The canonical reduction must land a second conjugate and the
theta image of x in x's catalog parabolic, with x's U/L pattern, and must
land c x, at the scaled radius, in the same parabolic without a warning.
"""

import cmath
import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from gzcut import (
    DEFAULT_TOL,
    SeededRng,
    ad,
    canonical_form,
    coincidence_count,
    random_xi,
    sample_K,
    theta,
    xi_build,
)


@st.composite
def planted(draw):
    """(x, l, rng): a conjugated normal form with l coincidences, n = 2..7."""
    n = draw(st.integers(2, 7))
    l = draw(st.integers(0, n - 1))
    rng = SeededRng(draw(st.integers(0, 2**31 - 1)))
    x = ad(sample_K(rng.derive(1), n), xi_build(random_xi(rng, n, l)))
    return x, l, rng


@settings(max_examples=60, deadline=None)
@given(planted())
def test_count_is_invariant_under_conjugation(point):
    x, l, rng = point
    assert coincidence_count(x).l == l
    assert coincidence_count(ad(sample_K(rng.derive(2), x.shape[0]), x)).l == l


@settings(max_examples=60, deadline=None)
@given(planted())
def test_count_is_invariant_under_theta(point):
    x, l, _ = point
    assert coincidence_count(theta(x)).l == l


@settings(max_examples=60, deadline=None)
@given(
    planted(),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2 * cmath.pi, exclude_max=True),
)
def test_count_is_invariant_under_scaling(point, log_mag, phase):
    x, l, _ = point
    c = 10.0**log_mag * cmath.exp(1j * phase)
    tol = replace(DEFAULT_TOL, eig_match=abs(c) * DEFAULT_TOL.eig_match)
    assert coincidence_count(c * x, tol).l == l


@settings(max_examples=60, deadline=None)
@given(planted())
def test_canonical_form_is_invariant_under_conjugation_and_theta(point):
    x, l, rng = point
    results = [
        canonical_form(y) for y in (x, ad(sample_K(rng.derive(2), x.shape[0]), x), theta(x))
    ]
    first = results[0]
    for res in results:
        assert (res.idx, res.pattern, res.l) == (first.idx, first.pattern, l)
        assert res.residual < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    planted(),
    st.floats(-6.0, 6.0),
    st.one_of(st.just(0.0), st.floats(0.0, 2 * cmath.pi, exclude_max=True)),
)
def test_canonical_form_is_invariant_under_scaling(point, log_mag, phase):
    x, l, _ = point
    c = 10.0**log_mag * cmath.exp(1j * phase)
    tol = replace(DEFAULT_TOL, eig_match=abs(c) * DEFAULT_TOL.eig_match)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, res = canonical_form(x), canonical_form(c * x, tol)
    assert (res.idx, res.l) == (first.idx, l)
    assert res.residual < 1e-7
    # the shared slots are sorted by (real, imag), which a phase reorders
    if phase == 0.0:
        assert res.pattern == first.pattern
    else:
        assert sorted(res.pattern.marks) == sorted(first.pattern.marks)
