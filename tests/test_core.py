import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import truncated_gaussian_second_moment
import mixsense
from mixsense import core
from mixsense.errors import InvalidInputError


def brute_quantile(values, alpha):
    """Literal scan of the inf definition: smallest t in the set with
    #{x <= t} / m >= alpha."""
    vals = sorted(values)
    m = len(vals)
    for t in vals:
        if sum(x <= t for x in vals) / m >= alpha:
            return t
    return vals[-1]


class TestSvd:
    def test_diagonal_truncated(self):
        res = core.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.u[:, :1], [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(res.s[:1], [3.0])
        np.testing.assert_allclose(res.v[:, :1], [[1.0], [0.0]], atol=1e-14)

    def test_identity(self):
        res = core.svd(np.eye(2))
        np.testing.assert_allclose(res.s, [1.0, 1.0])
        np.testing.assert_allclose(res.u @ res.v.T, np.eye(2), atol=1e-14)

    def test_rank_one_offdiagonal_matches_eig_oracle(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        # oracle: eigendecomposition of m.T m gives v and s^2, then u = m v / s
        evals, evecs = np.linalg.eigh(m.T @ m)
        s_expect = math.sqrt(evals[-1])
        v_expect = evecs[:, -1] * np.sign(evecs[np.argmax(np.abs(evecs[:, -1])), -1])
        u_expect = m @ v_expect / s_expect
        res = core.svd(m)
        np.testing.assert_allclose(res.s[:1], [s_expect])
        np.testing.assert_allclose(res.u[:, 0], u_expect, atol=1e-14)
        np.testing.assert_allclose(res.v[:, 0], v_expect, atol=1e-14)
        np.testing.assert_allclose(res.u[:, 0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(res.v[:, 0], [0.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(5):
            m = rng.standard_normal((20, 15))
            res = core.svd(m)
            k = res.s.size
            assert np.linalg.norm(res.u @ np.diag(res.s) @ res.v.T - m) <= 1e-8 * np.linalg.norm(m)
            assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) <= 1e-10 * k
            assert np.linalg.norm(res.v.T @ res.v - np.eye(k)) <= 1e-10 * k
            assert (np.diff(res.s) <= 0).all()

    def test_sign_convention_and_determinism(self, rng):
        m = rng.standard_normal((8, 6))
        res1 = core.svd(m)
        res2 = core.svd(m.copy())
        assert (res1.u == res2.u).all() and (res1.v == res2.v).all()
        anchors = np.argmax(np.abs(res1.u), axis=0)
        assert (res1.u[anchors, np.arange(res1.u.shape[1])] > 0).all()

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            core.svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_gesvd_fallback(self, rng, monkeypatch):
        # when gesdd fails to converge, scipy's gesvd gives the same
        # factorization under the same sign convention
        ms = [rng.standard_normal((9, 6)), rng.standard_normal((5, 7)), -np.eye(3)]
        expected = [core.svd(m) for m in ms]
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(1)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for m, want in zip(ms, expected):
            res = core.svd(m)
            k = res.s.size
            assert np.linalg.norm(res.u @ np.diag(res.s) @ res.v.T - m) <= 1e-12 * np.linalg.norm(m)
            assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) <= 1e-12 * k
            assert np.linalg.norm(res.v.T @ res.v - np.eye(k)) <= 1e-12 * k
            anchors = np.argmax(np.abs(res.u), axis=0)
            assert (res.u[anchors, np.arange(k)] > 0).all()
            np.testing.assert_allclose(res.s, want.s, rtol=1e-12)
            if (np.diff(want.s) < 0).all():  # distinct singular values fix the vectors
                np.testing.assert_allclose(res.u, want.u, atol=1e-12)
                np.testing.assert_allclose(res.v, want.v, atol=1e-12)
        assert len(calls) == len(ms)


def test_import_loads_no_scipy():
    # scipy serves only the SVD fallback and the evaluation's alignment, so
    # a fresh interpreter that imports the package leaves it unloaded
    src = os.path.dirname(os.path.dirname(mixsense.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, mixsense; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestFiniteQuantile:
    def test_examples(self):
        assert core.finite_quantile([3, 1, 2, 4], 0.5) == 2
        assert core.finite_quantile([5], 1.0) == 5
        assert core.finite_quantile(list(range(1, 11)), 0.8 / 3) == 3

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            core.finite_quantile([], 0.5)
        with pytest.raises(InvalidInputError):
            core.finite_quantile([1.0], 0.0)
        with pytest.raises(InvalidInputError):
            core.finite_quantile([1.0], 1.5)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=10),
    )
    def test_matches_brute_force(self, values, alpha_tenths):
        alpha = alpha_tenths / 10.0
        assert core.finite_quantile(values, alpha) == brute_quantile(values, alpha)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.randoms())
    def test_permutation_stable(self, values, pyrandom):
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        assert core.finite_quantile(values, 0.37) == core.finite_quantile(shuffled, 0.37)


def quadrature_second_moment(x, nodes=1_000_000):
    t = np.linspace(-x, x, nodes)
    integrand = t**2 * np.exp(-0.5 * t**2) / np.sqrt(2 * np.pi)
    return np.trapezoid(integrand, t)


class TestTruncatedGaussianSecondMoment:
    def test_zero(self):
        assert truncated_gaussian_second_moment(0.0) == 0.0

    def test_at_one_vs_quadrature(self):
        w1 = truncated_gaussian_second_moment(1.0)
        assert abs(w1 - quadrature_second_moment(1.0)) < 1e-10
        assert abs(w1 - 0.1987) < 5e-4

    def test_large_limit(self):
        assert abs(truncated_gaussian_second_moment(40.0) - 1.0) < 1e-12

    def test_monotone(self):
        xs = np.linspace(0.0, 6.0, 400)
        ws = [truncated_gaussian_second_moment(x) for x in xs]
        assert (np.diff(ws) >= 0).all()
        assert all(0.0 <= w < 1.0 for w in ws)

    def test_quadrature_grid(self):
        for x in np.linspace(0.0, 3.0, 16):
            got = truncated_gaussian_second_moment(x)
            assert abs(got - quadrature_second_moment(x)) < 1e-9

    def test_quadratic_ratio_bound(self):
        # w(x)/w(y) <= x^2/y^2 for 0 < x <= y <= 1.35
        xs = np.arange(0.01, 1.351, 0.01)
        ws = np.array([truncated_gaussian_second_moment(x) for x in xs])
        ratio = ws / xs**2
        # equivalent statement: w(x)/x^2 is nondecreasing on the grid
        assert (np.diff(ratio) >= -1e-15).all()

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            truncated_gaussian_second_moment(-0.1)
        with pytest.raises(InvalidInputError):
            truncated_gaussian_second_moment(float("nan"))


class TestRelFroError:
    def test_examples(self, rng):
        m = rng.standard_normal((3, 4))
        assert core.rel_fro_error(m, m) == 0.0
        assert abs(core.rel_fro_error(2 * m, m) - 1.0) < 1e-14
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert abs(core.rel_fro_error(a, b) - math.sqrt(2)) < 1e-14

    def test_zero_reference(self):
        with pytest.raises(InvalidInputError):
            core.rel_fro_error(np.eye(2), np.zeros((2, 2)))


class TestSubspaceDistance:
    def test_identical(self, rng):
        q = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        assert core.subspace_distance(q, q) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        # oracle: projector difference is diag(1, -1), eigenvalues +-1
        assert abs(core.subspace_distance(e1, e2) - 1.0) < 1e-14

    def test_45_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / math.sqrt(2)
        diff = e1 @ e1.T - mid @ mid.T
        oracle = max(abs(np.linalg.eigvalsh(diff)))
        got = core.subspace_distance(e1, mid)
        assert abs(got - oracle) < 1e-14
        assert abs(got - math.sqrt(2) / 2) < 1e-14

    def test_rotation_invariance_and_symmetry(self, rng):
        u = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        d = core.subspace_distance(u, v)
        assert abs(core.subspace_distance(u @ q, v) - d) < 1e-12
        assert abs(core.subspace_distance(v, u) - d) < 1e-14

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            core.subspace_distance(np.array([[2.0], [0.0]]), np.array([[1.0], [0.0]]))


class TestVecConvention:
    def test_column_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(core.vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_exact(self, rng):
        for r in range(1, 9):
            m = rng.integers(-9, 9, size=(r, r)).astype(float)
            assert (core.unvec(core.vec(m), r) == m).all()
