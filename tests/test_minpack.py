"""The package's Levenberg-Marquardt (minpack.least_squares) against scipy's."""
import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from sicladder import minpack


def rosenbrock(x):
    return np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]])


T = np.linspace(0, 3, 20)
Y = 2.5 * np.exp(-1.3 * T) + 0.5 + 0.01 * np.sin(7 * T)


def exp_fit(p):
    return p[0] * np.exp(-p[1] * T) + p[2] - Y


# Well-conditioned problems: scipy's read past the Jacobian, which happens
# only when a column norm collapses, does not occur, so scipy's bits are
# heap-independent here and must be the package's bits.
@pytest.mark.parametrize("fun, x0", [
    (rosenbrock, [-1.2, 1.0]), (rosenbrock, [2.0, -3.0]),
    (exp_fit, [1.0, 1.0, 0.0]), (exp_fit, [4.0, 0.2, 1.0])])
def test_bits_match_scipy(fun, x0):
    ref = scipy_least_squares(fun, np.array(x0), method="lm", max_nfev=500,
                              xtol=1e-15, ftol=1e-15, gtol=1e-15)
    x, f = minpack.least_squares(fun, x0, 500)
    assert np.array_equal(x, ref.x)
    assert np.array_equal(f, ref.fun)


def test_linear_fit_reaches_the_normal_equations_solution():
    rng = np.random.default_rng(1)
    A, b = rng.normal(size=(30, 4)), rng.normal(size=30)
    x, _ = minpack.least_squares(lambda x: A @ x - b, np.zeros(4), 200)
    assert np.abs(x - np.linalg.lstsq(A, b, rcond=None)[0]).max() < 1e-7


def test_residual_budget_stops_the_search():
    calls = []

    def fun(x):
        calls.append(x)
        return rosenbrock(x)

    minpack.least_squares(fun, [-1.2, 1.0], 3)
    # 3 counted evaluations, 2 per Jacobian, at most 2 Jacobians before the stop
    assert len(calls) <= 3 + 2 * 2


def test_enorm_ranges_agree_with_the_plain_norm():
    for x in ([3.0, 4.0], [1e-25, 0.0, 2e-25], [1e30, 1e30], [1e-25, 1.0], [1e30, 1.0, 1e-25]):
        assert minpack._enorm(np.array(x)) == pytest.approx(np.linalg.norm(x), rel=1e-15)
        assert minpack._enorm(list(x)) == minpack._enorm(np.array(x))
