"""Quasi-Newton minimizer used by the M-step."""

import numpy as np
import pytest

from sigsurv import optim
from sigsurv.errors import InputError
from sigsurv.optim import minimize_lbfgs


def test_quadratic_exact_minimum():
    A = np.diag([1.0, 4.0, 9.0])
    b = np.array([1.0, -2.0, 0.5])

    def fg(x):
        return 0.5 * x @ A @ x - b @ x, lambda: A @ x - b

    res = minimize_lbfgs(fg, np.zeros(3), gtol=1e-10)
    assert res.converged
    assert res.f0 == 0.0  # the value at the start point
    assert np.allclose(res.x, np.linalg.solve(A, b), rtol=0, atol=1e-8)
    assert np.linalg.norm(res.grad, np.inf) <= 1e-10


def test_rosenbrock():
    def fg(x):
        a, bb = 1.0, 100.0
        f = (a - x[0]) ** 2 + bb * (x[1] - x[0] ** 2) ** 2
        return f, lambda: np.array([
            -2 * (a - x[0]) - 4 * bb * x[0] * (x[1] - x[0] ** 2),
            2 * bb * (x[1] - x[0] ** 2),
        ])

    res = minimize_lbfgs(fg, np.array([-1.2, 1.0]), max_iter=400, gtol=1e-9)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-6)


def test_high_dimensional_quadratic():
    rng = np.random.default_rng(10)
    n = 120
    d = rng.uniform(0.5, 50.0, size=n)
    b = rng.normal(size=n)

    def fg(x):
        return 0.5 * (d * x * x).sum() - b @ x, lambda: d * x - b

    res = minimize_lbfgs(fg, np.zeros(n), max_iter=500, gtol=1e-6)
    assert res.converged
    assert np.max(np.abs(res.x - b / d)) < 1e-6


def test_iteration_cap_reported():
    def fg(x):
        return float((x * x).sum()), lambda: 2.0 * x

    res = minimize_lbfgs(fg, np.full(4, 100.0), max_iter=1, gtol=1e-30)
    assert not res.converged
    assert res.n_iter == 1
    assert "iteration" in res.message


def test_already_at_optimum_returns_immediately():
    def fg(x):
        return float((x * x).sum()), lambda: 2.0 * x

    res = minimize_lbfgs(fg, np.zeros(3), gtol=1e-8)
    assert res.converged
    assert res.n_iter <= 1
    assert res.n_fev == 1
    assert res.n_grad == 1


def test_input_validation():
    def fg(x):
        return float((x * x).sum()), lambda: 2.0 * x

    with pytest.raises(InputError):
        minimize_lbfgs(fg, np.zeros(3), max_iter=0)


def test_nonfinite_objective_rejected():
    def fg(x):
        return float("nan"), lambda: np.zeros(2)

    with pytest.raises(InputError):
        minimize_lbfgs(fg, np.zeros(2))

def _rosenbrock_parts(x):
    a, bb = 1.0, 100.0
    f = (a - x[0]) ** 2 + bb * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (a - x[0]) - 4 * bb * x[0] * (x[1] - x[0] ** 2),
        2 * bb * (x[1] - x[0] ** 2),
    ])
    return f, g


def test_lazy_and_precomputed_gradients_give_the_same_result():
    def precomputed(x):
        f, g = _rosenbrock_parts(x)
        return f, lambda: g

    def lazy(x):
        return _rosenbrock_parts(x)[0], lambda: _rosenbrock_parts(x)[1]

    x0 = np.array([-1.2, 1.0])
    a = minimize_lbfgs(precomputed, x0, max_iter=400, gtol=1e-9)
    b = minimize_lbfgs(lazy, x0, max_iter=400, gtol=1e-9)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.grad.tobytes() == b.grad.tobytes()
    assert (a.f, a.f0, a.n_iter, a.n_fev, a.n_grad, a.converged, a.message) \
        == (b.f, b.f0, b.n_iter, b.n_fev, b.n_grad, b.converged, b.message)
    assert a.converged and a.n_grad < a.n_fev


@pytest.mark.parametrize("x0", [0.01, -0.02, 0.015])
def test_no_gradient_at_a_trial_failing_sufficient_decrease(x0):
    # one line search from x0 along d = -f'(x0) on the stiff f = 50 x^2:
    # the first step overshoots, so the search must reject trials
    c1 = optim._C1  # the sufficient-decrease constant
    calls = []

    def fg(x):
        f = float(50.0 * x[0] ** 2)
        calls.append([float(x[0]), f, False])
        me = calls[-1]

        def grad():
            me[2] = True
            return np.array([100.0 * x[0]])
        return f, grad

    res = minimize_lbfgs(fg, np.array([x0]), max_iter=1)
    (_, f0, took0), trials = calls[0], calls[1:]
    g0 = 100.0 * x0
    assert took0
    rejected = 0
    for x, f, took in trials:
        a = (x0 - x) / g0  # the step along d = -g0
        sufficient = f <= f0 + c1 * a * (-g0 * g0)
        rejected += not sufficient
        assert sufficient or not took
    assert rejected >= 1
    assert res.n_fev == len(calls)
    assert res.n_grad == sum(took for _, _, took in calls) < res.n_fev
