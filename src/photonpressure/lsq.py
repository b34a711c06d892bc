"""Damped Gauss-Newton least-squares engine.

A small, dependency-free Levenberg-Marquardt-style minimizer used by every
fit in the package.  ``residual(p)`` returns ``(r, jac_thunk)``: a real or
complex residual, stacked as real rows above imaginary rows, and a thunk
for its analytic derivative at ``p``, complex (m, n) or already stacked
real (2m, n), used without a copy.  The thunk is called once at the seed
and once at each accepted point, never at a rejected try, so it may reuse
its evaluation's intermediates; the last call is at the returned point,
whose normal matrix gives the uncertainties.  No step raises the cost.

Each iteration starts by solving for the undamped step at the current
point.  When that step predicts a cost decrease of at most ``cost_tol`` of
the cost (the predicted-reduction test of MINPACK), the point is returned
as converged before any further residual evaluation, and the normal matrix
just formed gives the uncertainties; otherwise the same step is the first,
undamped try.  The fit also converges when an accepted step's relative size
drops below ``step_tol`` or its relative cost decrease below ``cost_tol``;
then the thunk at the returned point is called once more.  A singular
normal matrix there (with more residuals than parameters) makes the result
non-converged; out of iterations the engine returns a non-converged result
instead of raising.  So ``evaluations`` is 1 + iterations + rejected tries,
and ``cost_history`` holds iterations + 1 costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FitResult", "least_squares"]

_MAX_DAMPING = 1e14


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``params`` follows the order of the initial guess; ``names`` (set by the
    model-level wrappers) allows lookup through :meth:`value` and keys
    :meth:`as_dict`, uncertainties as ``<name>_err``.  ``extras`` carries
    model-specific products such as derived parameters or a corrected trace.
    """

    params: np.ndarray
    uncertainties: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str
    evaluations: int = 0            # residual calls; thunk calls not counted
    cost_history: list = field(default_factory=list)
    names: tuple = ()
    background: object = None
    extras: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        try:
            return float(self.params[self.names.index(name)])
        except ValueError:
            raise KeyError(f"no parameter named {name!r}; have {self.names}") from None

    def as_dict(self) -> dict:
        out = {n: float(v) for n, v in zip(self.names, self.params)}
        out.update({f"{n}_err": float(u) for n, u in zip(self.names, self.uncertainties)})
        out["residual_norm"] = self.residual_norm
        out["iterations"] = self.iterations
        out["converged"] = self.converged
        for key, value in self.extras.items():
            if isinstance(value, (int, float)):
                out[key] = float(value)
        return out


def _stack(values) -> np.ndarray:
    values = np.atleast_1d(np.asarray(values))
    if np.iscomplexobj(values):
        return np.concatenate([values.real, values.imag], dtype=float)
    return values.astype(float, copy=False)


def _solve(a, grad):
    """The step solving a @ step = -grad, or None when a is singular or the
    step is not finite."""
    try:
        step = np.linalg.solve(a, -grad)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def least_squares(residual, x0, *, names=(), max_iterations=200,
                  step_tol=1e-9, cost_tol=1e-12) -> FitResult:
    """Minimize sum(|r|^2) from ``x0``; ``residual(p)`` returns ``(r, jac_thunk)``
    (see the module docstring).  Never raises on non-convergence."""
    p = np.asarray(x0, dtype=float).copy()
    n = p.size
    evaluations = 0

    def cost_of(q):
        nonlocal evaluations
        evaluations += 1
        r, thunk = residual(q)
        r = _stack(r)
        return r, float(r @ r), thunk

    r, cost, thunk = cost_of(p)
    m = r.size
    history = [cost]
    lam = 0.0
    converged = False
    message = "maximum iterations reached"
    iterations = 0

    while True:
        jmat = _stack(thunk())
        grad = jmat.T @ r
        jtj = jmat.T @ jmat
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0

        # the undamped step's predicted decrease of the cost r.r,
        # -(2 grad.step + step.jtj.step), is -grad.step; when the linear
        # model cannot lower the cost by cost_tol of itself, p is the
        # optimum.  The check costs no residual evaluation and no iteration.
        step = _solve(jtj, grad)
        if step is not None and -(grad @ step) <= cost_tol * cost:
            converged, message = True, "predicted decrease below tolerance"
            break
        if iterations == max_iterations:
            break
        iterations += 1

        accepted = False
        while lam <= _MAX_DAMPING:
            if lam > 0.0:
                step = _solve(jtj + lam * np.diag(diag), grad)
            if step is not None:
                p_try = p + step
                r_try, cost_try, thunk_try = cost_of(p_try)
                if np.isfinite(cost_try) and cost_try <= cost:
                    accepted = True
                    break
            lam = 1e-4 if lam == 0.0 else lam * 10.0

        if not accepted:
            message = "damping exhausted without an acceptable step"
            break

        prev_cost = cost
        p, r, cost, thunk = p_try, r_try, cost_try, thunk_try
        jtj = None                  # not yet formed at the new p
        history.append(cost)
        lam = 0.0 if lam < 1e-12 else lam / 10.0

        rel_step = np.linalg.norm(step) / (np.linalg.norm(p) + step_tol)
        rel_decrease = (prev_cost - cost) / max(prev_cost, 1e-300)
        if rel_step < step_tol:
            converged, message = True, "parameter step below tolerance"
            break
        if rel_decrease < cost_tol:
            converged, message = True, "cost decrease below tolerance"
            break

    # standard uncertainties from the normal matrix at the returned point,
    # scaled by the residual variance (approximate, as usual); an accepted
    # last step leaves it to be computed.  A singular one leaves some
    # parameter unconstrained, so the point is not a converged fit.
    if jtj is None:
        jmat = _stack(thunk())
        jtj = jmat.T @ jmat
    uncertainties = np.full(n, np.nan)
    if m > n:
        s2 = cost / (m - n)
        try:
            cov = s2 * np.linalg.inv(jtj)
            uncertainties = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            converged = False
            message = "parameters are not identifiable: singular normal matrix"

    return FitResult(
        params=p,
        uncertainties=uncertainties,
        residual_norm=float(np.sqrt(cost)),
        iterations=iterations,
        converged=converged,
        message=message,
        evaluations=evaluations,
        cost_history=history,
        names=tuple(names),
    )
