import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igamotor.splines import (
    KnotVector,
    NurbsPatch,
    bspline_basis_table,
    eval_patch,
    insert_knots,
    insert_knots_stack,
    make_arc_patch,
    rational_basis,
)

from conftest import (curve_points, homogeneous_eval, scalar_bspline_basis, scalar_eval_patch,
                      weighted_arc_patch)


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
    # the span of the basis table's 0-d case, and of an array of points
    kv = KnotVector([0, 0, 0, 1, 2, 3, 3, 3], 2)
    assert bspline_basis_table(kv, 0.5)[0] == 3
    kv1 = linear_kv()
    assert bspline_basis_table(kv1, 0.0)[0] == 1
    assert bspline_basis_table(kv1, 1.0)[0] == 1
    assert bspline_basis_table(kv, [0.0, 0.5, 1.0])[0].tolist() == [2, 3, 4]
    with pytest.raises(ValueError):
        bspline_basis_table(kv1, -0.1)
    with pytest.raises(ValueError):
        bspline_basis_table(kv1, 1.1)


# ---------------------------------------------------------------- basis

def test_bspline_basis_linear_example():
    span, vals, ders = bspline_basis_table(linear_kv(), 0.25)
    assert span == 1
    np.testing.assert_allclose(vals, [0.75, 0.25], atol=1e-15)
    np.testing.assert_allclose(ders, [-1.0, 1.0], atol=1e-15)


def test_bspline_basis_degree_zero():
    kv = KnotVector([0.0, 1.0], 0)
    span, vals, ders = bspline_basis_table(kv, 0.5)
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
    _, vals, ders = bspline_basis_table(kv, x)
    assert vals.size == kv.degree + 1
    assert np.all(vals >= -1e-15)
    assert abs(vals.sum() - 1.0) < 1e-14
    assert abs(ders.sum()) < 1e-11


@given(knot_vectors(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_bspline_basis_equals_scalar_recursion_bitwise(kv, x):
    # the 0-d case of the table against the textbook one-point recursion,
    # the span search included; the knots themselves hit the span ends
    for y in (x, *kv.knots):
        span, vals, ders = bspline_basis_table(kv, y)
        want = scalar_bspline_basis(kv, y)
        assert span == want[0]
        assert vals.tobytes() == want[1].tobytes() and ders.tobytes() == want[2].tobytes()


@given(knot_vectors(), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_basis_derivative_matches_finite_difference(kv, x):
    h = 1e-6
    span, _, ders = bspline_basis_table(kv, x)
    sp, vp, _ = bspline_basis_table(kv, x + h)
    sm, vm, _ = bspline_basis_table(kv, x - h)
    if sp != span or sm != span:
        return  # stencil crosses a knot; derivative may jump
    fd = (vp - vm) / (2 * h)
    np.testing.assert_allclose(ders, fd, rtol=1e-5, atol=1e-5)


def test_nurbs_basis_reduces_to_bspline_for_equal_weights():
    kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
    _, b, db = bspline_basis_table(kv, 0.3)
    for w in (1.0, 7.0):
        r, dr = rational_basis(np.full(kv.degree + 1, w), b, db)
        np.testing.assert_allclose(r, b, atol=1e-15)
        np.testing.assert_allclose(dr, db, atol=1e-13)


def test_nurbs_basis_partition_of_unity_and_errors():
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    w = np.array([1.0, 0.5, 2.0, 1.5])
    span, N, dN = bspline_basis_table(kv, 0.7)
    r, dr = rational_basis(w[span - kv.degree:span + 1], N, dN)
    assert abs(r.sum() - 1.0) < 1e-14
    assert abs(dr.sum()) < 1e-12
    # the patch, the one holder of NURBS weights, takes positive ones only
    square = unit_square_patch()
    with pytest.raises(ValueError):
        NurbsPatch(square.knots_u, square.knots_v, square.points, np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_quarter_circle_curve_radius():
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    w = np.array([1.0, np.sqrt(2) / 2, 1.0])
    pts = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for x in (0.5, 0.123, 0.98):
        point = curve_points(kv, w, pts, x)
        assert abs(np.linalg.norm(point) - 1.0) < 1e-14
    radii = np.linalg.norm(curve_points(kv, w, pts, np.linspace(0.0, 1.0, 41)), axis=-1)
    assert np.abs(radii - 1.0).max() < 1e-14


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


def test_batched_eval_patch_equals_per_point_chain_bitwise(coarse_machine):
    rng = np.random.default_rng(9)
    for patch in [p for model in coarse_machine for p in model.patches] + [weighted_arc_patch()]:
        xi, eta = rng.uniform(0.0, 1.0, size=(2, 3, 4))
        xi[0], eta[1] = 0.0, 1.0
        point, jac = eval_patch(patch, xi, eta)
        assert point.shape == (3, 4, 2) and jac.shape == (3, 4, 2, 2)
        for n in np.ndindex(xi.shape):
            want_point, want_jac = scalar_eval_patch(patch, xi[n], eta[n])
            assert point[n].tobytes() == want_point.tobytes()
            assert jac[n].tobytes() == want_jac.tobytes()


def test_eval_patch_identity_square():
    patch = unit_square_patch()
    point, jac = eval_patch(patch, 0.3, 0.7)
    np.testing.assert_allclose(point, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-15)


def test_eval_patch_scaling_scales_jacobian():
    square = unit_square_patch()
    patch = NurbsPatch(square.knots_u, square.knots_v, 2.0 * square.points, square.weights)
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


def _boehm_per_patch(patch, cuts):
    """Per-patch Boehm insertion of ``cuts`` in both directions, on the
    patch's own (n_u, n_v, 3) homogeneous grid: the loop form that stacked
    refinement must reproduce bit for bit."""
    def insert_u(knots, p, Pw, x):
        n = knots.size - p - 1
        span = min(max(int(np.searchsorted(knots, x, side="right")) - 1, p), n - 1)
        Q = np.empty((Pw.shape[0] + 1,) + Pw.shape[1:])
        Q[:span - p + 1] = Pw[:span - p + 1]
        Q[span + 1:] = Pw[span:]
        for i in range(span - p + 1, span + 1):
            a = (x - knots[i]) / (knots[i + p] - knots[i])
            Q[i] = a * Pw[i] + (1.0 - a) * Pw[i - 1]
        return np.insert(knots, span + 1, x), Q

    Pw = np.concatenate([patch.points * patch.weights[..., None],
                         patch.weights[..., None]], axis=2)
    ku, kv = patch.knots_u.knots, patch.knots_v.knots
    for x in cuts:
        ku, Pw = insert_u(ku, patch.knots_u.degree, Pw, x)
    Pw = Pw.transpose(1, 0, 2)
    for x in cuts:
        kv, Pw = insert_u(kv, patch.knots_v.degree, Pw, x)
    Pw = Pw.transpose(1, 0, 2)
    return ku, kv, Pw[..., :2] / Pw[..., 2:], Pw[..., 2]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_stacked_refinement_equals_per_patch_insertion_bitwise(level):
    rng = np.random.default_rng(level)
    patches = []
    for th0 in np.linspace(0.0, 5.0, 7):
        arc = make_arc_patch(0.03, 0.05, th0, th0 + rng.uniform(0.2, 1.5))
        weights = arc.weights * rng.uniform(0.5, 2.0, arc.weights.shape)
        patches.append(NurbsPatch(arc.knots_u, arc.knots_v, arc.points, weights))
    cuts = [i / 2 ** level for i in range(1, 2 ** level)]
    stacked = insert_knots_stack(patches, cuts, cuts)
    for patch, out in zip(patches, stacked):
        single = insert_knots(patch, cuts, cuts)
        ku, kv, points, weights = _boehm_per_patch(patch, cuts)
        for ref in (single, out):
            assert np.array_equal(ref.knots_u.knots, ku) and np.array_equal(ref.knots_v.knots, kv)
        assert np.array_equal(out.points, single.points)
        assert np.array_equal(out.weights, single.weights)
        # the division is the one the one-patch path makes
        assert np.array_equal(out.points, points) and np.array_equal(out.weights, weights)
        assert out.points.flags.c_contiguous and not out.points.flags.writeable
    with pytest.raises(ValueError):
        insert_knots_stack([patches[0], stacked[0]], cuts, cuts)


def test_demo_refinement_equals_per_patch_insertion_bitwise():
    from igamotor.geometry import MachineConfig, build_demo_machine

    coarse = build_demo_machine(MachineConfig(refinement=0, n_harmonics=12))
    for level in (1, 4):
        refined = build_demo_machine(MachineConfig(refinement=level, n_harmonics=12))
        cuts = [i / 2 ** level for i in range(1, 2 ** level)]
        for side0, side in zip(coarse, refined):
            for patch0, patch in zip(side0.patches, side.patches):
                single = insert_knots(patch0, cuts, cuts)
                assert np.array_equal(patch.points, single.points)
                assert np.array_equal(patch.weights, single.weights)
                assert np.array_equal(patch.knots_u.knots, single.knots_u.knots)
                assert np.array_equal(patch.knots_v.knots, single.knots_v.knots)
