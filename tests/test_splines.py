import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igamotor.splines import (
    KnotVector,
    NurbsPatch,
    bspline_basis,
    eval_curve,
    eval_patch,
    find_span,
    insert_knots,
    make_arc_patch,
    nurbs_basis,
    scale_patch,
)

from conftest import homogeneous_eval, weighted_arc_patch


def linear_kv():
    return KnotVector([0.0, 0.0, 1.0, 1.0], 1)


def unit_square_patch():
    kv = linear_kv()
    pts = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    return NurbsPatch(kv, kv, pts, np.ones((2, 2)))


def quarter_annulus_patch():
    return make_arc_patch(1.0, 2.0, 0.0, np.pi / 2)


# ---------------------------------------------------------------- knot vector

def test_knot_vector_rescales_to_unit_interval():
    kv = KnotVector([0, 0, 0, 1, 2, 3, 3, 3], 2)
    assert kv.knots[0] == 0.0 and kv.knots[-1] == 1.0
    assert kv.n == 5
    np.testing.assert_allclose(kv.knots, [0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1])


def test_knot_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        KnotVector([0, 0, 1, 0.5, 1, 1], 1)  # decreasing
    with pytest.raises(ValueError):
        KnotVector([0, 0.5, 1], 1)  # not clamped
    with pytest.raises(ValueError):
        KnotVector([0, 0, 0.5, 0.5, 1, 1], 1)  # interior multiplicity > p


def test_find_span_examples():
    kv = KnotVector([0, 0, 0, 1, 2, 3, 3, 3], 2)
    assert find_span(kv, 0.5) == 3
    kv1 = linear_kv()
    assert find_span(kv1, 0.0) == 1
    assert find_span(kv1, 1.0) == 1
    with pytest.raises(ValueError):
        find_span(kv1, -0.1)
    with pytest.raises(ValueError):
        find_span(kv1, 1.1)


# ---------------------------------------------------------------- basis

def test_bspline_basis_linear_example():
    span, vals, ders = bspline_basis(linear_kv(), 0.25)
    assert span == 1
    np.testing.assert_allclose(vals, [0.75, 0.25], atol=1e-15)
    np.testing.assert_allclose(ders, [-1.0, 1.0], atol=1e-15)


def test_bspline_basis_degree_zero():
    kv = KnotVector([0.0, 1.0], 0)
    span, vals, ders = bspline_basis(kv, 0.5)
    assert span == 0
    np.testing.assert_allclose(vals, [1.0])
    np.testing.assert_allclose(ders, [0.0])


@st.composite
def knot_vectors(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    pool = [i / 8 for i in range(1, 8)]
    interior = []
    for x in sorted(draw(st.lists(st.sampled_from(pool), max_size=6))):
        if interior.count(x) < p:
            interior.append(x)
    knots = [0.0] * (p + 1) + interior + [1.0] * (p + 1)
    return KnotVector(knots, p)


@given(knot_vectors(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_partition_of_unity(kv, x):
    _, vals, ders = bspline_basis(kv, x)
    assert vals.size == kv.degree + 1
    assert np.all(vals >= -1e-15)
    assert abs(vals.sum() - 1.0) < 1e-14
    assert abs(ders.sum()) < 1e-11


@given(knot_vectors(), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_basis_derivative_matches_finite_difference(kv, x):
    h = 1e-6
    span, _, ders = bspline_basis(kv, x)
    sp, vp, _ = bspline_basis(kv, x + h)
    sm, vm, _ = bspline_basis(kv, x - h)
    if sp != span or sm != span:
        return  # stencil crosses a knot; derivative may jump
    fd = (vp - vm) / (2 * h)
    np.testing.assert_allclose(ders, fd, rtol=1e-5, atol=1e-5)


def test_nurbs_basis_reduces_to_bspline_for_equal_weights():
    kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
    for w in (1.0, 7.0):
        s0, b, db = bspline_basis(kv, 0.3)
        s1, r, dr = nurbs_basis(kv, np.full(kv.n, w), 0.3)
        assert s0 == s1
        np.testing.assert_allclose(r, b, atol=1e-15)
        np.testing.assert_allclose(dr, db, atol=1e-13)


def test_nurbs_basis_partition_of_unity_and_errors():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    w = np.array([1.0, 0.5, 2.0, 1.5])
    _, r, dr = nurbs_basis(kv, w, 0.7)
    assert abs(r.sum() - 1.0) < 1e-14
    assert abs(dr.sum()) < 1e-12
    with pytest.raises(ValueError):
        nurbs_basis(kv, np.array([1.0, -1.0, 1.0, 1.0]), 0.5)


def test_quarter_circle_curve_radius():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, np.sqrt(2) / 2, 1.0])
    pts = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for x in (0.5, 0.123, 0.98):
        point, _ = eval_curve(kv, w, pts, x)
        assert abs(np.linalg.norm(point) - 1.0) < 1e-14


# ---------------------------------------------------------------- patches

def test_eval_patch_matches_homogeneous_oracle(coarse_machine):
    patches = [p for model in coarse_machine for p in model.patches[::5]]
    rng = np.random.default_rng(8)
    for patch in patches + [weighted_arc_patch()]:
        for xi, eta in rng.uniform(0.0, 1.0, size=(10, 2)):
            point, jac = eval_patch(patch, xi, eta)
            ref_point, ref_jac = homogeneous_eval(patch, patch.points, xi, eta)
            assert np.abs(point - ref_point).max() <= 1e-13 * np.abs(ref_point).max()
            assert np.abs(jac - ref_jac).max() <= 1e-13 * np.abs(ref_jac).max()


def test_eval_patch_identity_square():
    patch = unit_square_patch()
    point, jac = eval_patch(patch, 0.3, 0.7)
    np.testing.assert_allclose(point, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-15)


def test_eval_patch_scaling_scales_jacobian():
    patch = scale_patch(unit_square_patch(), 2.0)
    for xi, eta in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]:
        _, jac = eval_patch(patch, xi, eta)
        np.testing.assert_allclose(jac, 2.0 * np.eye(2), atol=1e-14)


def test_eval_patch_jacobian_matches_finite_difference():
    patch = quarter_annulus_patch()
    rng = np.random.default_rng(7)
    h = 1e-6
    for xi, eta in rng.uniform(0.05, 0.95, size=(10, 2)):
        _, jac = eval_patch(patch, xi, eta)
        fd = np.empty((2, 2))
        fd[:, 0] = (eval_patch(patch, xi + h, eta)[0] - eval_patch(patch, xi - h, eta)[0]) / (2 * h)
        fd[:, 1] = (eval_patch(patch, xi, eta + h)[0] - eval_patch(patch, xi, eta - h)[0]) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


def test_arc_patch_lies_on_circles_with_positive_jacobian():
    patch = make_arc_patch(1.0, 2.0, 0.2, 0.2 + np.pi / 3)
    for eta in np.linspace(0, 1, 17):
        inner, _ = eval_patch(patch, 0.0, eta)
        outer, jac = eval_patch(patch, 1.0, eta)
        assert abs(np.linalg.norm(inner) - 1.0) < 1e-14
        assert abs(np.linalg.norm(outer) - 2.0) < 1e-13
        assert np.linalg.det(jac) > 0.0


# ---------------------------------------------------------------- insertion

def test_insert_nothing_is_identity():
    patch = quarter_annulus_patch()
    out = insert_knots(patch)
    np.testing.assert_array_equal(out.points, patch.points)
    np.testing.assert_array_equal(out.weights, patch.weights)


def test_insert_knot_midpoint_rule_linear():
    kv = linear_kv()
    pts = np.array([[[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]]])
    patch = NurbsPatch(kv, kv, pts, np.ones((2, 2)))
    out = insert_knots(patch, new_knots_u=[0.5])
    assert out.n_u == 3
    np.testing.assert_allclose(out.points[1, 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(out.points[1, 1], [1.0, 1.0], atol=1e-15)


def test_insert_knots_preserves_geometry():
    patch = quarter_annulus_patch()
    out = insert_knots(patch, new_knots_u=[0.5], new_knots_v=[0.25, 0.5, 0.75])
    assert out.n_u == patch.n_u + 1
    assert out.n_v == patch.n_v + 3
    rng = np.random.default_rng(3)
    for xi, eta in rng.uniform(0.0, 1.0, size=(100, 2)):
        a, _ = eval_patch(patch, xi, eta)
        b, _ = eval_patch(out, xi, eta)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_insert_knots_multiplicity_guard():
    patch = quarter_annulus_patch()
    with pytest.raises(ValueError):
        insert_knots(patch, new_knots_u=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        insert_knots(patch, new_knots_u=[0.0])
