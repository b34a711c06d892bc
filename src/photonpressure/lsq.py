"""Damped Gauss-Newton least-squares engine.

A small, dependency-free Levenberg-Marquardt-style minimizer used by every
fit in the package.  ``residual(p)`` returns ``(r, jac_thunk)``: a real or
complex residual of m points and a thunk for its analytic (m, n) derivative
at ``p``, complex when ``r`` is.  The engine reads a complex residual
through ``.view(float)``, so the real and imaginary part of each point are
adjacent rows, and it reads the Jacobian through its transpose, the same
way; a thunk that fills an (n, m) array and returns its transpose hands the
engine its matrix without a copy.  The thunk is called once at the seed
and once at each accepted point, never at a rejected try, so it may reuse
its evaluation's intermediates.  The engine reads each Jacobian before its
next thunk call, so every thunk of a fit may refill and return one shared
buffer.  No step raises the cost.

Every fit runs under one policy with no options.  Each iteration starts by
forming the Jacobian at the current point, and every stop but one is
decided right there, so the normal matrix at the returned point, which
gives the uncertainties, is always the one just formed.  The fit converges
when the last accepted step was below ``_STEP_TOL`` of the point's size, or
when the undamped step predicts a cost decrease of at most ``_COST_TOL`` of
the cost (MINPACK's predicted-reduction test), before any further residual
evaluation; otherwise that step is the first, undamped try.  It ends
non-converged after ``_MAX_ITERATIONS``, when the damping of the tries
exceeds ``_MAX_DAMPING`` (the one stop inside an iteration, still at the
same point), or when the normal matrix at the returned point does not
constrain every parameter: it is singular, or its inverse has a diagonal
entry that is not positive and finite (more residuals than parameters); the
engine never raises.  So ``evaluations``
is 1 + iterations + rejected tries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FitResult", "least_squares"]

_MAX_ITERATIONS = 200
_STEP_TOL = 1e-11
_COST_TOL = 1e-12
_MAX_DAMPING = 1e14


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``params`` follows the order of the initial guess; ``names`` (set by the
    model-level wrappers) allows lookup through :meth:`value`.  :meth:`as_dict`
    is the whole fit report: each name with its ``<name>_err``, the record
    (``residual_norm``, ``iterations``, ``evaluations``, ``message``,
    ``converged``) and the numeric ``extras``, which also carry model products
    such as a fitted background (``extras["background"]``) or a corrected trace.
    """

    params: np.ndarray
    uncertainties: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str
    evaluations: int = 0            # residual calls; thunk calls not counted
    names: tuple = ()
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
        out["evaluations"] = self.evaluations
        out["message"] = self.message
        out["converged"] = self.converged
        for key, value in self.extras.items():
            if isinstance(value, (int, float)):
                out[key] = float(value)
        return out


def _real(values) -> np.ndarray:
    """``values`` as float; a complex array is read as the (re, im) pairs of
    its last axis, without a copy when that axis is contiguous."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return np.ascontiguousarray(values).view(float)
    return values.astype(float, copy=False)


def _solve(a, grad):
    """The step solving a @ step = -grad, or None when a is singular or the
    step is not finite."""
    try:
        step = np.linalg.solve(a, -grad)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def least_squares(residual, x0, *, names=()) -> FitResult:
    """Minimize sum(|r|^2) from ``x0``; ``residual(p)`` returns ``(r, jac_thunk)``
    (see the module docstring).  Never raises on non-convergence."""
    p = np.asarray(x0, dtype=float).copy()
    n = p.size
    evaluations = 0

    def cost_of(q):
        nonlocal evaluations
        evaluations += 1
        r, thunk = residual(q)
        r = _real(np.atleast_1d(r))
        return r, float(r @ r), thunk

    r, cost, thunk = cost_of(p)
    m = r.size
    lam = 0.0
    converged = False
    message = "maximum iterations reached"
    iterations = 0
    small_step = False

    while True:
        # row j: the derivative of the real view of r by parameter j
        jt = _real(np.transpose(thunk()))
        jtj = jt @ jt.T
        if small_step:
            converged, message = True, "parameter step below tolerance"
            break

        # the undamped step's predicted decrease of the cost r.r,
        # -(2 grad.step + step.jtj.step), is -grad.step; when the linear
        # model cannot lower the cost by _COST_TOL of itself, p is the
        # optimum.  The check costs no residual evaluation and no iteration.
        grad = jt @ r
        step = _solve(jtj, grad)
        if step is not None and -(grad @ step) <= _COST_TOL * cost:
            converged, message = True, "predicted decrease below tolerance"
            break
        if iterations == _MAX_ITERATIONS:
            break
        iterations += 1

        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
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

        p, r, cost, thunk = p_try, r_try, cost_try, thunk_try
        lam = 0.0 if lam < 1e-12 else lam / 10.0
        small_step = np.linalg.norm(step) / (np.linalg.norm(p) + _STEP_TOL) < _STEP_TOL

    # standard uncertainties from the normal matrix at the returned point,
    # scaled by the residual variance (approximate, as usual).  A singular
    # one, or one whose inverse has a diagonal entry that is not positive
    # and finite (rounding on a nearly singular matrix), leaves some
    # parameter unconstrained, so the point is not a converged fit.
    uncertainties = np.full(n, np.nan)
    if m > n:
        try:
            var = np.diag(np.linalg.inv(jtj))
        except np.linalg.LinAlgError:
            var = np.zeros(n)
        if np.all(np.isfinite(var) & (var > 0.0)):
            uncertainties = np.sqrt(cost / (m - n) * var)
        else:
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
        names=tuple(names),
    )
