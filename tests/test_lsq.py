import numpy as np
import pytest

from photonpressure import lsq
from photonpressure.lsq import least_squares


def linear(a, b):
    """Residual a @ p - b with its constant Jacobian a."""
    return lambda p: (a @ p - b, lambda: a)


def cost_spy(residual):
    """``residual`` with the cost at each point whose Jacobian the engine
    asks for appended to the returned list, in call order."""
    costs = []

    def spied(p):
        r, thunk = residual(p)
        cost = float(np.sum(np.abs(r) ** 2))

        def spied_thunk():
            costs.append(cost)
            return thunk()

        return r, spied_thunk

    return spied, costs


def shared_buffer(residual):
    """``residual`` with each thunk refilling one (n, m) buffer, shared by
    every thunk, and returning its transpose, as the resonance fit's do."""
    buffer = []

    def shared(p):
        r, thunk = residual(p)

        def refill():
            jac = thunk()
            if not buffer:
                buffer.append(np.empty(jac.T.shape, jac.dtype))
            buffer[0][...] = jac.T
            return buffer[0].T

        return r, refill

    return shared


def rosenbrock(p):
    return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])


def rosenbrock_jac(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


class TestQuadratic:
    def test_single_parameter_converges_fast(self):
        # linear residual: the first undamped step lands on the minimum
        result = least_squares(linear(np.array([[3.0]]), np.array([6.0])),
                               np.array([100.0]))
        assert result.converged
        assert result.iterations <= 3
        assert result.params[0] == pytest.approx(2.0, rel=1e-12)

    def test_multi_parameter_linear(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 3))
        x_true = np.array([1.0, -2.0, 0.5])
        b = a @ x_true
        result = least_squares(linear(a, b), np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.params, x_true, rtol=1e-10)


class TestNonlinear:
    def test_rosenbrock_style(self):
        def residual(p):
            return rosenbrock(p), lambda: rosenbrock_jac(p)

        result = least_squares(residual, np.array([-1.2, 1.0]))
        assert result.converged
        np.testing.assert_allclose(result.params, [1.0, 1.0], rtol=1e-6)

    def test_complex_residual_stacking(self):
        target = 2.0 + 3.0j

        def residual(p):
            # real Jacobian of a complex residual: d/dp0 = 1, d/dp1 = i
            return (np.array([(p[0] + 1j * p[1]) - target]),
                    lambda: np.array([[1.0, 0.0], [0.0, 1.0]]))

        result = least_squares(residual, np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.params, [2.0, 3.0], rtol=1e-10)

    def test_monotone_cost_at_jacobian_points(self):
        # the Jacobian is asked for at the seed and at each accepted point:
        # iterations + 1 points whose cost never rises, the returned one last
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 50)
        data = np.exp(-3.0 * x) + 0.01 * rng.standard_normal(50)

        def residual(p):
            e = np.exp(-p[0] * x)
            return e * p[1] - data, lambda: np.column_stack([-x * e * p[1], e])

        spied, costs = cost_spy(residual)
        result = least_squares(spied, np.array([0.5, 2.0]))
        assert result.converged
        assert len(costs) == result.iterations + 1
        assert np.all(np.diff(costs) <= 0)
        assert costs[-1] == pytest.approx(result.residual_norm ** 2, rel=1e-12)

    def test_predicted_decrease_stop(self):
        # a linear residual: the first step lands on the optimum, where the
        # undamped step predicts no decrease, so the fit stops before trying
        # it; started at the optimum it takes no step at all
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 3))
        b = a @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(20)
        spied, costs = cost_spy(linear(a, b))
        first = least_squares(spied, np.zeros(3))
        assert first.converged
        assert first.message == "predicted decrease below tolerance"
        assert (first.iterations, first.evaluations, len(costs)) == (1, 2, 2)
        spied, costs = cost_spy(linear(a, b))
        again = least_squares(spied, first.params)
        assert again.converged and again.message == first.message
        assert (again.iterations, again.evaluations, len(costs)) == (0, 1, 1)
        np.testing.assert_array_equal(again.params, first.params)
        np.testing.assert_allclose(again.uncertainties, first.uncertainties, rtol=1e-12)

    def test_step_stop_at_a_zero_residual(self):
        # at a zero-residual optimum the undamped step always predicts a
        # decrease of the whole cost, so the fit stops on its step size; the
        # pass that stops forms the Jacobian at the returned point first
        points = []

        def residual(p):
            e = np.exp(p[0])

            def thunk():
                points.append(p.copy())
                return np.array([[e], [2.0 * e]])

            return np.array([e - 3.0, 2.0 * (e - 3.0)]), thunk

        result = least_squares(residual, np.array([3.0]))
        assert result.converged
        assert result.message == "parameter step below tolerance"
        assert len(points) == result.iterations + 1
        np.testing.assert_array_equal(points[-1], result.params)
        assert result.params[0] == pytest.approx(np.log(3.0), rel=1e-14)
        assert np.all(np.isfinite(result.uncertainties))

    def test_max_iterations_returns_diagnostics(self, monkeypatch):
        # r = p^2 only halves the parameter per Gauss-Newton step, so three
        # iterations cannot reach the tolerances
        monkeypatch.setattr(lsq, "_MAX_ITERATIONS", 3)
        result = least_squares(lambda p: (np.array([p[0] ** 2]),
                                          lambda: np.array([[2.0 * p[0]]])),
                               np.array([8.0]))
        assert not result.converged
        assert result.iterations == 3
        assert "iteration" in result.message or "damping" in result.message
        assert np.isfinite(result.residual_norm)

    def test_uncertainties_reported(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 1, 200)
        data = 2.0 * x + 1.0 + 0.05 * rng.standard_normal(200)

        result = least_squares(linear(np.column_stack([x, np.ones_like(x)]), data),
                               np.zeros(2), names=("slope", "offset"))
        assert result.value("slope") == pytest.approx(2.0, abs=0.05)
        # analytic standard error of the slope for this design matrix
        sigma = 0.05 / np.sqrt(np.sum((x - x.mean()) ** 2))
        assert result.as_dict()["slope_err"] == pytest.approx(sigma, rel=0.3)

    def test_wrong_jacobian_exhausts_damping(self):
        # a Jacobian of the wrong sign makes every damped step climb, so no
        # step is accepted and the seed is returned
        result = least_squares(lambda p: (np.array([p[0] - 1.0, 2.0 * (p[0] - 1.0)]),
                                          lambda: -np.array([[1.0], [2.0]])),
                               np.array([3.0]))
        assert not result.converged
        assert result.message == "damping exhausted without an acceptable step"
        np.testing.assert_array_equal(result.params, [3.0])
        assert result.evaluations == 21

    def test_zero_jacobian_is_not_converged(self):
        # a model that does not move with its parameters leaves them
        # unconstrained: the normal matrix is singular at the returned point
        data = np.linspace(1.0, 2.0, 51)
        result = least_squares(lambda p: (data - 0.0 * p[0], lambda: np.zeros((51, 2))),
                               np.array([1.0, 2.0]))
        assert not result.converged
        assert "not identifiable" in result.message
        np.testing.assert_array_equal(result.params, [1.0, 2.0])

    def test_nearly_collinear_columns_are_not_identifiable(self):
        # the columns x and x + 1e-8 cos(7x) are parallel to rounding: the
        # normal matrix inverts, but with a negative diagonal, so no
        # uncertainty can be given and the fit is not converged
        x = np.linspace(0.5, 1.5, 50)
        a = np.column_stack([x, x + 1e-8 * np.cos(7.0 * x)])
        assert np.any(np.diag(np.linalg.inv(a.T @ a)) <= 0)
        result = least_squares(linear(a, 1.0 + x), np.zeros(2))
        assert not result.converged
        assert "not identifiable" in result.message

    def test_named_lookup_errors(self):
        result = least_squares(linear(np.eye(1), np.ones(1)), np.array([0.0]),
                               names=("a",))
        with pytest.raises(KeyError):
            result.value("b")


class TestAnalyticJacobian:
    def test_complex_jacobian_stacked_like_residual(self):
        # r(p) = p0 * exp(i p1) - target; the engine stacks the complex
        # (m, n) derivative as real rows above imaginary rows
        target = 2.0 * np.exp(0.7j)

        def residual(p):
            rot = np.exp(1j * p[1])
            return (np.array([p[0] * rot - target]),
                    lambda: np.array([[rot, 1j * p[0] * rot]]))

        result = least_squares(residual, np.array([1.0, 0.0]))
        assert result.converged
        np.testing.assert_allclose(result.params, [2.0, 0.7], rtol=1e-10)

    def test_thunk_called_once_per_iteration_at_accepted_points(self):
        # Rosenbrock from (-1.2, 1) rejects some tries.  Each thunk call must
        # come right after the residual call that made it (so never after a
        # rejected try) and at that call's parameters: first x0, then each
        # accepted point, the returned one last, for the uncertainties.
        events = []

        def residual(p):
            p = p.copy()
            k = sum(kind == "r" for kind, _ in events)
            events.append(("r", p))

            def thunk():
                events.append(("j", k))
                return rosenbrock_jac(p)

            return rosenbrock(p), thunk

        result = least_squares(residual, np.array([-1.2, 1.0]))
        assert result.converged
        calls = [p for kind, p in events if kind == "r"]
        thunks = [(i, k) for i, (kind, k) in enumerate(events) if kind == "j"]
        assert result.evaluations == len(calls)
        assert len(thunks) == result.iterations + 1
        assert result.evaluations > 1 + result.iterations   # some tries were rejected
        for i, k in thunks:
            assert events[i - 1] == ("r", calls[k])
        costs = [float(rosenbrock(calls[k]) @ rosenbrock(calls[k])) for _, k in thunks]
        assert np.all(np.diff(costs) <= 0)
        assert costs[-1] == pytest.approx(result.residual_norm ** 2, rel=1e-12)
        assert np.array_equal(calls[thunks[0][1]], [-1.2, 1.0])
        assert np.array_equal(calls[thunks[-1][1]], result.params)

    @pytest.mark.parametrize("x0, rejects", [([1.0, 0.0, 0.0], True),
                                             ([1.5, 2.5, 0.7], False)],
                             ids=["rejected-tries", "no-rejected-tries"])
    def test_thunks_may_refill_one_buffer(self, x0, rejects):
        # the engine reads each Jacobian before its next thunk call, so a
        # residual whose thunks refill one shared array fits as one whose
        # thunks return fresh arrays
        x = np.linspace(0, 1, 60)
        rng = np.random.default_rng(5)
        data = 1.5 * np.exp(2.5j * x - 0.7 * x) + 0.01 * (rng.standard_normal(60)
                                                          + 1j * rng.standard_normal(60))

        def residual(p):
            e = np.exp((1j * p[1] - p[2]) * x)
            return p[0] * e - data, lambda: np.column_stack([e, 1j * x * p[0] * e,
                                                             -x * p[0] * e])

        fresh = least_squares(residual, np.array(x0))
        shared = least_squares(shared_buffer(residual), np.array(x0))
        assert fresh.converged and shared.converged
        assert (fresh.evaluations > fresh.iterations + 1) == rejects
        np.testing.assert_array_equal(shared.params, fresh.params)
        np.testing.assert_array_equal(shared.uncertainties, fresh.uncertainties)
        assert (shared.iterations, shared.evaluations) == (fresh.iterations, fresh.evaluations)
