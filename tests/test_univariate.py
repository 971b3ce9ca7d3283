import numpy as np
import pytest

from mvortho.errors import DegenerateMeasureError
from mvortho.measures import DiscreteMeasure, gauss_jacobi_rule
from mvortho.stieltjes import stieltjes_recurrence
from mvortho.univariate import (UnivariateRecurrence, evaluate_univariate,
                                jacobi_recurrence)


def stieltjes_coefficients(x, w, n_max):
    """Centers a_1..a_N and widths b_1..b_N of the discrete measure with
    nodes ``x`` and weights ``w``, from ``ms`` in d = 1 (the classical
    Stieltjes procedure)."""
    rec, _ = stieltjes_recurrence(DiscreteMeasure(nodes=x, weights=w), n_max)
    return (np.array([rec.A[n][0][0, 0] for n in range(1, n_max + 1)]),
            np.array([rec.B[n][0][0, 0] for n in range(1, n_max + 1)]))


class TestJacobiRecurrence:
    def test_legendre_centers_vanish(self):
        rec = jacobi_recurrence(30, 0.0, 0.0)
        assert np.max(np.abs(rec.a)) == 0.0

    def test_legendre_first_width(self):
        rec = jacobi_recurrence(5, 0.0, 0.0)
        assert rec.b[1] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (3.8, 7.34), (-0.5, -0.5), (0.78, 8.26)])
    def test_unit_mass_normalization(self, alpha, beta):
        rec = jacobi_recurrence(10, alpha, beta)
        assert rec.b[0] == 1.0

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            jacobi_recurrence(5, -1.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_recurrence(5, 0.0, -1.5)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (3.8, 7.34), (1.61, -0.89)])
    def test_matches_discrete_stieltjes(self, alpha, beta):
        # Independent oracle: run the discrete Stieltjes iteration (``ms``
        # in d = 1) on an exact quadrature rule and compare coefficient by
        # coefficient.
        closed = jacobi_recurrence(20, alpha, beta)
        x, w = gauss_jacobi_rule(50, alpha, beta)
        a, b = stieltjes_coefficients(x, w, 20)
        assert np.max(np.abs(closed.a - a)) < 1e-13
        assert np.max(np.abs(closed.b[1:] - b)) < 1e-13


class TestDiscreteRecurrence:
    """The recurrence of discrete 1-d measures, from ``ms`` in d = 1."""

    def test_symmetric_measure_centers_vanish(self):
        x, w = gauss_jacobi_rule(40, 0.0, 0.0)
        a, _ = stieltjes_coefficients(x, w, 15)
        assert np.max(np.abs(a)) < 1e-14

    def test_refinement_invariance(self):
        coarse = stieltjes_coefficients(*gauss_jacobi_rule(30, 2.0, 0.5), 12)
        fine = stieltjes_coefficients(*gauss_jacobi_rule(120, 2.0, 0.5), 12)
        for got, want in zip(coarse, fine):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_degeneracy_detected(self):
        # Three nodes support at most three orthogonal polynomials.
        x = np.array([-0.5, 0.1, 0.7])
        w = np.full(3, 1.0 / 3.0)
        with pytest.raises(DegenerateMeasureError) as err:
            stieltjes_coefficients(x, w, 5)
        assert err.value.degree == 3


class TestEvaluation:
    def test_degree_zero_is_one(self):
        rec = jacobi_recurrence(5, 1.3, 0.2)
        vals = evaluate_univariate(rec, 0, np.linspace(-1, 1, 7))
        assert np.allclose(vals, 1.0)

    def test_legendre_degree_one(self):
        rec = jacobi_recurrence(5, 0.0, 0.0)
        x = np.linspace(-1, 1, 11)
        vals = evaluate_univariate(rec, 1, x)
        assert np.allclose(vals[1], np.sqrt(3.0) * x, atol=1e-14)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (3.8, 7.34)])
    def test_orthonormal_under_exact_rule(self, alpha, beta):
        rec = jacobi_recurrence(10, alpha, beta)
        x, w = gauss_jacobi_rule(30, alpha, beta)
        vals = evaluate_univariate(rec, 10, x)
        gram = (vals * w[None, :]) @ vals.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-13

    def test_degree_beyond_storage(self):
        rec = jacobi_recurrence(3, 0.0, 0.0)
        with pytest.raises(ValueError):
            evaluate_univariate(rec, 4, np.array([0.0]))


class TestRecurrenceContainer:
    def test_width_positivity_enforced(self):
        with pytest.raises(ValueError):
            UnivariateRecurrence(a=np.zeros(2), b=np.array([1.0, -0.5, 0.2]))

    def test_length_contract(self):
        with pytest.raises(ValueError):
            UnivariateRecurrence(a=np.zeros(3), b=np.ones(3))
