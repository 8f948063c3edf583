"""Quasi-Newton minimizer used by the M-step."""

import numpy as np
import pytest

from sigsurv.errors import InputError
from sigsurv.optim import minimize_lbfgs


def test_quadratic_exact_minimum():
    A = np.diag([1.0, 4.0, 9.0])
    b = np.array([1.0, -2.0, 0.5])

    def fg(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    res = minimize_lbfgs(fg, np.zeros(3), gtol=1e-10)
    assert res.converged
    assert res.f0 == 0.0  # the value at the start point
    assert np.allclose(res.x, np.linalg.solve(A, b), rtol=0, atol=1e-8)
    assert np.linalg.norm(res.grad, np.inf) <= 1e-10


def test_rosenbrock():
    def fg(x):
        a, bb = 1.0, 100.0
        f = (a - x[0]) ** 2 + bb * (x[1] - x[0] ** 2) ** 2
        g = np.array([
            -2 * (a - x[0]) - 4 * bb * x[0] * (x[1] - x[0] ** 2),
            2 * bb * (x[1] - x[0] ** 2),
        ])
        return f, g

    res = minimize_lbfgs(fg, np.array([-1.2, 1.0]), max_iter=400, gtol=1e-9)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-6)


def test_high_dimensional_quadratic():
    rng = np.random.default_rng(10)
    n = 120
    d = rng.uniform(0.5, 50.0, size=n)
    b = rng.normal(size=n)

    def fg(x):
        return 0.5 * (d * x * x).sum() - b @ x, d * x - b

    res = minimize_lbfgs(fg, np.zeros(n), max_iter=500, gtol=1e-6)
    assert res.converged
    assert np.max(np.abs(res.x - b / d)) < 1e-6


def test_iteration_cap_reported():
    def fg(x):
        return float((x * x).sum()), 2.0 * x

    res = minimize_lbfgs(fg, np.full(4, 100.0), max_iter=1, gtol=1e-30)
    assert not res.converged
    assert res.n_iter == 1
    assert "iteration" in res.message


def test_already_at_optimum_returns_immediately():
    def fg(x):
        return float((x * x).sum()), 2.0 * x

    res = minimize_lbfgs(fg, np.zeros(3), gtol=1e-8)
    assert res.converged
    assert res.n_iter <= 1
    assert res.n_fev == 1


def test_input_validation():
    def fg(x):
        return float((x * x).sum()), 2.0 * x

    with pytest.raises(InputError):
        minimize_lbfgs(fg, np.zeros(3), memory=0)
    with pytest.raises(InputError):
        minimize_lbfgs(fg, np.zeros(3), max_iter=0)


def test_nonfinite_objective_rejected():
    def fg(x):
        return float("nan"), np.zeros(2)

    with pytest.raises(InputError):
        minimize_lbfgs(fg, np.zeros(2))