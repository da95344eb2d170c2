"""Tests for the small-tensor operations: the :mod:`repro.tensors`
substrate and the order-driven ops (``•``, ``lerp``, ``identity[n]``) that
:mod:`repro.runtime.ops` alone defines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.runtime.ops import dot_ord, identity, lerp
from repro.tensors import (
    cross,
    determinant,
    norm,
    normalize,
    outer,
    trace,
    transpose,
)


def dot(u, v):
    """``u • v`` of two vectors."""
    return dot_ord(u, v, 1, 1)


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=finite)
mat3 = arrays(np.float64, (3, 3), elements=finite)


class TestDot:
    def test_vector_vector(self):
        assert dot(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0

    def test_matrix_vector(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert np.allclose(dot_ord(m, np.array([3.0, 4.0]), 2, 1), [3.0, 8.0])

    def test_vector_matrix_contracts_the_vector_with_the_rows(self):
        u = np.array([1.0, 2.0])
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(dot_ord(u, m, 1, 2), [7.0, 10.0])
        assert np.allclose(dot_ord(m, u, 2, 1), [5.0, 11.0])

    def test_matrix_matrix(self):
        a = np.arange(4.0).reshape(2, 2)
        b = np.eye(2)
        assert np.allclose(dot_ord(a, b, 2, 2), a)

    def test_batched(self):
        u = np.ones((10, 3))
        v = np.full((10, 3), 2.0)
        assert np.allclose(dot(u, v), 6.0)

    @given(vec3, vec3)
    @settings(max_examples=40)
    def test_commutative_on_vectors(self, u, v):
        assert dot(u, v) == pytest.approx(dot(v, u), rel=1e-12, abs=1e-9)


class TestCross:
    def test_right_handed_basis(self):
        e = np.eye(3)
        assert np.allclose(cross(e[0], e[1]), e[2])
        assert np.allclose(cross(e[1], e[2]), e[0])

    def test_2d_scalar_cross(self):
        assert cross(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    @given(vec3, vec3)
    @settings(max_examples=40)
    def test_orthogonal_to_operands(self, u, v):
        w = cross(u, v)
        assert float(dot(w, u)) == pytest.approx(0.0, abs=1e-6)
        assert float(dot(w, v)) == pytest.approx(0.0, abs=1e-6)

    @given(vec3, vec3)
    @settings(max_examples=40)
    def test_antisymmetric(self, u, v):
        assert np.allclose(cross(u, v), -cross(v, u), atol=1e-9)


class TestOuter:
    def test_shape(self):
        assert outer(np.zeros(3), np.zeros(2)).shape == (3, 2)

    def test_values(self):
        got = outer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(got, [[3, 4], [6, 8]])

    @given(vec3, vec3)
    @settings(max_examples=40)
    def test_trace_of_outer_is_dot(self, u, v):
        assert float(trace(outer(u, v))) == pytest.approx(float(dot(u, v)), rel=1e-9, abs=1e-9)


class TestNorm:
    def test_scalar_norm_is_abs(self):
        assert norm(-3.5, order=0) == 3.5

    def test_vector_norm(self):
        assert norm(np.array([3.0, 4.0])) == 5.0

    def test_frobenius(self):
        assert norm(np.array([[3.0, 0.0], [0.0, 4.0]]), order=2) == 5.0

    @given(vec3, finite)
    @settings(max_examples=40)
    def test_homogeneous(self, v, s):
        assert float(norm(s * v)) == pytest.approx(abs(s) * float(norm(v)), rel=1e-9, abs=1e-6)


class TestNormalize:
    def test_unit_result(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_zero_vector_stays_zero(self):
        assert np.allclose(normalize(np.zeros(3)), 0.0)

    @given(vec3)
    @settings(max_examples=40)
    def test_length_one_or_zero(self, v):
        n = float(norm(normalize(v)))
        assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0


class TestMatrixOps:
    def test_trace(self):
        assert trace(np.diag([1.0, 2.0, 3.0])) == 6.0

    def test_transpose(self):
        m = np.arange(6.0).reshape(2, 3)
        assert transpose(m).shape == (3, 2)

    @given(mat3)
    @settings(max_examples=40)
    def test_det_matches_numpy(self, m):
        # hypothesis happily generates singular matrices, for which LAPACK's
        # det raises divide-by-zero/invalid warnings while computing the
        # reference value; those are expected here, not a test failure
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = float(np.linalg.det(m))
        assert float(determinant(m)) == pytest.approx(
            expected, rel=1e-6, abs=1e-3
        )

    def test_det_2x2(self):
        assert determinant(np.array([[1.0, 2.0], [3.0, 4.0]])) == -2.0

    def test_det_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            determinant(np.zeros((2, 3)))

    def test_det_rejects_large(self):
        with pytest.raises(ValueError):
            determinant(np.eye(4))

    def test_identity(self):
        assert np.array_equal(identity(3), np.eye(3))


class TestLerp:
    def test_endpoints(self):
        assert lerp(2.0, 10.0, 0.0) == 2.0
        assert lerp(2.0, 10.0, 1.0) == 10.0

    def test_midpoint_vectors(self):
        got = lerp(np.zeros(3), np.ones(3), 0.5, 1)
        assert np.allclose(got, 0.5)

    def test_laned_t_against_vectors(self):
        a = np.zeros((4, 3))
        b = np.ones((4, 3))
        t = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.allclose(lerp(a, b, t, 1), t[:, None] * np.ones(3))
