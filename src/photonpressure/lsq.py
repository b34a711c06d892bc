"""Damped Gauss-Newton least-squares engine.

A small, dependency-free Levenberg-Marquardt-style minimizer used by every
fit in the package.  Complex residual vectors are stacked as (real, imag)
pairs, and a step is only ever accepted if it does not increase the cost.
The Jacobian comes from forward finite differences with step
max(1e-8*|p|, 1e-12), unless the caller passes ``jac=True``: then
``residual(p)`` returns ``(r, jac_thunk)``, and ``jac_thunk()`` returns the
derivative of ``r`` at ``p``, either complex (m, n) like a complex residual
or already stacked as a real (2m, n) matrix (real rows above imaginary
rows), which the engine uses without a copy and only within the iteration.
The engine calls the thunk once per iteration, for the current accepted
point only and never for a rejected try, so the thunk can build the
Jacobian from its residual evaluation's intermediates.  ``fit_resonance``
does so for its joint resonance-and-background fit of either model; the
Lorentzian, backaction and flux-arch fits use the forward differences.
Convergence is declared when the relative parameter step drops below
``step_tol`` (default 1e-9) or the relative cost decrease below
``cost_tol`` (default 1e-12).  Running out of iterations returns a
non-converged result with diagnostics instead of raising.
``FitResult.evaluations`` counts the residual calls, not the thunk calls.
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
    evaluations: int = 0            # residual calls, finite differences included
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


def least_squares(residual, x0, *, names=(), jac=False, max_iterations=200,
                  step_tol=1e-9, cost_tol=1e-12) -> FitResult:
    """Minimize sum(|residual(p)|^2) starting from ``x0``.

    ``residual`` maps a parameter vector to a real or complex residual
    array.  Returns a :class:`FitResult`; never raises on non-convergence.
    With ``jac=True``, ``residual`` returns ``(r, jac_thunk)`` instead, and
    the thunk's (m, n) or stacked (2m, n) derivative replaces the finite
    differences (see the module docstring).
    """
    p = np.asarray(x0, dtype=float).copy()
    n = p.size

    evaluations = 0

    def evaluate(q):
        nonlocal evaluations
        evaluations += 1
        if jac:
            r, thunk = residual(q)
            return _stack(r), thunk
        return _stack(residual(q)), None

    def cost_of(q):
        r, thunk = evaluate(q)
        return r, float(r @ r), thunk

    r, cost, thunk = cost_of(p)
    m = r.size
    history = [cost]
    lam = 0.0
    converged = False
    message = "maximum iterations reached"
    iterations = 0
    jtj = np.zeros((n, n))

    for iterations in range(1, max_iterations + 1):
        if jac:
            jmat = _stack(thunk())
        else:
            # forward-difference Jacobian of the stacked residual
            jmat = np.empty((m, n))
            for j in range(n):
                h = max(1e-8 * abs(p[j]), 1e-12)
                q = p.copy()
                q[j] += h
                jmat[:, j] = (evaluate(q)[0] - r) / h
        grad = jmat.T @ r
        jtj = jmat.T @ jmat
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0

        accepted = False
        while lam <= _MAX_DAMPING:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
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

    # standard uncertainties from the normal matrix at the solution,
    # scaled by the residual variance (approximate, as usual)
    uncertainties = np.full(n, np.nan)
    if m > n:
        s2 = cost / (m - n)
        try:
            cov = s2 * np.linalg.inv(jtj)
            uncertainties = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            pass

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
