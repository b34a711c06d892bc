"""Parameter extraction from measured or synthesized traces.

The central routine is :func:`fit_resonance`, a background-corrected fit of
a complex reflection trace on top of a slowly varying instrumental background:

1. mask the resonance region (within 2 initial-guess linewidths of the
   initial-guess center) and estimate the background
   (a0 + a1*w) * exp(i(b0 + b1*w)) from the remaining baseline in closed
   form; an algebraic circle fit of the background-divided data seeds the
   resonance-circle rotation theta and the coupling.  The pumped model's
   center is seeded at the midpoint of the outermost points at or below half
   depth of the background-divided |S11|, between its two hybrid-mode dips,
   rather than at the deeper of them;
2. fit resonance and background jointly from that seed, evaluating the
   model once per residual and building the Jacobian from that evaluation
   straight into the engine's stacked real matrix.  As this is the only
   nonlinear fit, the result's iterations, evaluations and message describe
   it whole.

The returned result's extras carry the fitted background
(``extras["background"]``) and a background-corrected trace (divided by the
background, rotation removed).  The other entry points fit Lorentzian
spectra, backaction curves and the flux arch (evaluating the arch model of
:mod:`squid`); like this one, each hands the engine its analytic Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import (BackgroundModel, _pumped_reflection, backaction_sideband,
                       s11_bare)
from .errors import DomainError
from .lsq import FitResult, least_squares
from .squid import SquidSpec, _arch
from .traces import ComplexTrace, SpectrumTrace

__all__ = [
    "BackgroundModel",
    "fit_resonance",
    "fit_lorentzian",
    "fit_backaction",
    "fit_flux_arch",
]

_MIN_POINTS = 16
_MASK_HALFWIDTHS = 2.0         # resonance mask, in initial-guess linewidths
_MIN_BASELINE_FRACTION = 0.25  # off-resonant share of the points the background needs


def _require_points(n, minimum=_MIN_POINTS):
    if n < minimum:
        raise DomainError(f"need at least {minimum} points for a fit, got {n}")


def _half_width(x, y, i0, level):
    """Width in x between the first points at or below ``level`` on either
    side of the peak at ``i0``, or the ends of the data."""
    left = i0
    while left > 0 and y[left] > level:
        left -= 1
    right = i0
    while right < y.size - 1 and y[right] > level:
        right += 1
    return x[right] - x[left]


def _dip_depth(mag):
    """Index of the deepest point of |S11| and its depth below the median of
    the outer tenths of the trace."""
    i0 = int(np.argmin(mag))
    edge = max(1, mag.size // 10)
    baseline = float(np.median(np.concatenate([mag[:edge], mag[-edge:]])))
    return i0, baseline - mag[i0]


def _initial_dip(omega, mag):
    """Center and linewidth guesses from the deepest dip of |S11|."""
    i0, depth = _dip_depth(mag)
    center = omega[i0]
    if depth <= 0:
        return center, (omega[-1] - omega[0]) / 10.0
    return center, _half_width(omega, -mag, i0, -(mag[i0] + 0.5 * depth))


def _dip_midpoint(omega, mag, fallback):
    """Midpoint of the outermost points at or below half the depth of |S11|,
    or ``fallback`` when the trace shows no dip.

    A split dip (the two hybrid modes of a strongly pumped resonance) gives
    its center rather than the deeper of its halves.
    """
    i0, depth = _dip_depth(mag)
    if depth <= 0:
        return fallback
    below = np.flatnonzero(mag <= mag[i0] + 0.5 * depth)
    return 0.5 * (omega[below[0]] + omega[below[-1]])


def _circle_rotation_guess(values):
    """Rotation of the resonance circle from an algebraic circle fit.

    The off-resonant point of the ideal response is 1; the point opposite
    the circle center is the dip, so the tilt is the phase of (1 - center).
    """
    x, y = values.real, values.imag
    a = np.column_stack([x, y, np.ones_like(x)])
    b = x * x + y * y
    try:
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return 0.0, 0.5
    xc, yc = sol[0] / 2.0, sol[1] / 2.0
    vec = 1.0 - (xc + 1j * yc)
    return float(np.angle(vec)), float(abs(vec))


def _baseline_phase(omega, values, base_idx):
    """Phase of the baseline points, unwrapped per contiguous segment and
    reconciled across the resonance gap.

    An overcoupled resonance winds the phase by a full turn, so segments on
    either side of the dip may sit on branches a multiple of 2*pi apart; each
    segment is shifted onto the line extrapolated from the first longest one.
    Returns the phases in ``base_idx`` order.
    """
    segments = np.split(base_idx, np.where(np.diff(base_idx) > 1)[0] + 1)
    phases = [np.unwrap(np.angle(values[seg])) for seg in segments]
    k = max(range(len(segments)), key=lambda i: segments[i].size)
    w_mid = omega[segments[k]].mean()
    c0, c1 = _line_fit(omega[segments[k]] - w_mid, phases[k])
    for i, seg in enumerate(segments):
        if i != k:
            predicted = c0 + c1 * (omega[seg] - w_mid)
            phases[i] = phases[i] - 2.0 * np.pi * np.round(
                np.median(phases[i] - predicted) / (2.0 * np.pi))
    return np.concatenate(phases)


def _baseline_background(omega, values, mask, w_ref):
    """Linear amplitude/phase background from the unmasked baseline."""
    base_idx = np.where(~mask)[0]
    w = omega[base_idx] - w_ref
    a0, a1 = _line_fit(w, np.abs(values[base_idx]))
    b0, b1 = _line_fit(w, _baseline_phase(omega, values, base_idx))
    return BackgroundModel(
        amplitude_offset=float(a0),
        amplitude_slope=float(a1),
        phase_offset=float(_wrap_angle(b0)),
        phase_slope=float(b1),
        reference_frequency=w_ref,
    )


def _line_fit(x, y):
    """Intercept and slope of the least-squares line y = c0 + c1*x.

    Solved about the mean of x, so an offset in x costs no precision.
    """
    x_mid, y_mid = x.mean(), y.mean()
    dx = x - x_mid
    c1 = (dx @ (y - y_mid)) / (dx @ dx)
    return y_mid - c1 * x_mid, c1


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _sign(x):
    """d|x|/dx, taking the right-hand side at 0."""
    return -1.0 if x < 0 else 1.0


def fit_resonance(trace: ComplexTrace, model: str = "bare", *,
                  pumped: dict | None = None) -> FitResult:
    """Background-corrected fit of a complex reflection trace.

    ``model`` selects the resonance term: "bare" fits (omega0, kappa_i,
    kappa_e, theta); "pumped" fits (omega0, kappa_i, g, lf_frequency, theta)
    with fixed ``pumped = {"kappa_e": ..., "gamma0": ..., "detuning": ...}``.
    The result's extras hold the fitted background, the corrected trace and,
    for convenience, the total linewidth.
    """
    _require_points(len(trace))
    if model not in ("bare", "pumped"):
        raise DomainError(f"unknown resonance model {model!r}")
    if model == "pumped":
        if not pumped or not all(k in pumped for k in ("kappa_e", "gamma0", "detuning")):
            raise DomainError("pumped fit needs kappa_e, gamma0 and detuning")

    omega = 2.0 * np.pi * trace.frequency_hz
    values = trace.values
    w_ref = 0.5 * (omega[0] + omega[-1])

    center0, width0 = _initial_dip(omega, np.abs(values))
    span = omega[-1] - omega[0]
    if span < 5.0 * width0:
        raise DomainError("trace must span at least 5 estimated linewidths")

    # background from the off-resonant baseline
    mask = np.abs(omega - center0) <= _MASK_HALFWIDTHS * width0
    if (~mask).sum() < _MIN_BASELINE_FRACTION * omega.size:
        raise DomainError(
            f"only {(~mask).sum()} of {omega.size} points are off-resonant; "
            f"need {_MIN_BASELINE_FRACTION:.0%}")
    bg0 = _baseline_background(omega, values, mask, w_ref)

    # resonance seed from the background-divided data.  The engine sees
    # dimensionless parameters (frequency as offset from the initial center
    # in units of the initial width) so the normal matrix stays well
    # conditioned for narrow lines on large carriers.
    corrected = values / bg0.evaluate(omega)
    theta0, tilt_mag = _circle_rotation_guess(corrected[mask] if mask.sum() >= 8 else corrected)
    kappa_e0 = max(width0 * tilt_mag / 2.0, width0 * 0.01)
    kappa_i0 = max(width0 - kappa_e0, width0 * 0.05)

    # resonance(pars) returns the resonance term and the intermediates that
    # resonance_jac(pars, state) turns into its complex columns
    if model == "bare":
        res_names = ("omega0", "kappa_i", "kappa_e", "theta")
        res_ref = np.array([center0, 0.0, 0.0, 0.0])
        res_scale = np.array([width0, width0, width0, 1.0])
        res0 = np.array([center0, kappa_i0, kappa_e0, theta0])

        def resonance(pars):
            om0, ki, ke, theta = pars
            rot = np.exp(1j * theta)
            dip = 1.0 - s11_bare(omega, om0, abs(ki), abs(ke))
            return 1.0 - dip * rot, rot

        def resonance_jac(pars, rot):
            # d/d(omega0, kappa_i, kappa_e, theta) of the resonance term,
            # dip = 2|ke| z with z = 1/(|ki| + |ke| + 2i(omega - omega0));
            # s11_bare divides 2|ke| by that denominator instead, so z has
            # no value to share with it
            om0, ki, ke, _ = pars
            z = 1.0 / (abs(ki) + abs(ke) + 2j * (omega - om0))
            return [
                -4j * abs(ke) * z * z * rot,
                2.0 * _sign(ki) * abs(ke) * z * z * rot,
                -2.0 * _sign(ke) * z * (1.0 - abs(ke) * z) * rot,
                -2j * abs(ke) * z * rot,
            ]
    else:
        ke_fix = float(pumped["kappa_e"])
        gamma0_fix = float(pumped["gamma0"])
        detuning_fix = float(pumped["detuning"])
        # the checks s11_pumped would make; the fit evaluates the reflection
        # through dynamics._pumped_reflection, which makes none
        if ke_fix < 0:
            raise DomainError("decay rates must be >= 0 with a positive total")
        if gamma0_fix <= 0:
            raise DomainError("low-frequency linewidth must be positive")
        center0 = _dip_midpoint(omega, np.abs(corrected), center0)
        g0_guess = float(pumped.get("g", width0))
        lf_guess = float(pumped.get("lf_frequency", abs(detuning_fix)))
        res_names = ("omega0", "kappa_i", "g", "lf_frequency", "theta")
        res_ref = np.array([center0, 0.0, 0.0, lf_guess, 0.0])
        res_scale = np.array([width0, width0, max(width0, g0_guess),
                              max(width0, gamma0_fix), 1.0])
        res0 = np.array([center0, kappa_i0, g0_guess, lf_guess, theta0])

        def resonance(pars):
            om0, ki, g, lf, theta = pars
            om = omega - (om0 + detuning_fix)
            s, terms = _pumped_reflection(om, abs(ki), ke_fix, lf, gamma0_fix, g,
                                          detuning_fix)
            rot = np.exp(1j * theta)
            return 1.0 - (1.0 - s) * rot, (om, terms, rot)

        def resonance_jac(pars, state):
            # d/d(omega0, kappa_i, g, lf_frequency, theta) of the resonance
            # term, from the intermediates of dynamics._pumped_terms.  With
            # the pump offset Om = omega - omega0 - detuning, a = 2i lf g^2 and
            # p = lf^2 - Om^2 - i Om gamma0, s11_pumped evaluates
            # s = 1 - ke chi_c (1 + t), t = a chi_c chi_lf,
            # 1/chi_lf = p - a (chi_c - chi_cm), and the term is
            # 1 - conj(1 - s) e^{i theta}: column j is conj(ds/dp_j) e^{i theta},
            # and d/dtheta is conj(i (1 - s)) e^{i theta}
            _, ki, g, lf, _ = pars
            om, (chi_c, chi_cm, a, p, chi_lf), rot = state
            t = a * chi_c * chi_lf
            c2 = chi_c * chi_c
            f = ke_fix * c2 * chi_lf * chi_lf
            # 2 ds/dkappa; omega0 and kappa move chi_c and chi_cm alike, so
            # ds/domega0 = -ds/dOm shares it
            ds_dk2 = ke_fix * c2 * (1.0 + 2.0 * t) + a * a * f * (c2 - chi_cm * chi_cm)
            return [np.conj(col) * rot for col in (
                1j * ds_dk2 + a * f * (2.0 * om + 1j * gamma0_fix),
                0.5 * _sign(ki) * ds_dk2,
                -4j * lf * g * p * f,
                -2j * g ** 2 * (p - 2.0 * lf ** 2) * f,
                1j * ke_fix * chi_c * (1.0 + t),
            )]

    # joint fit of resonance and background, seeded by the closed forms
    names = res_names + ("amplitude_offset", "amplitude_slope",
                         "phase_offset", "phase_slope")
    ref = np.concatenate([res_ref, [0.0, 0.0, 0.0, 0.0]])
    scale = np.concatenate([res_scale, [1.0, 1.0 / span, 1.0, 1.0 / span]])
    phys0 = np.concatenate([res0, [bg0.amplitude_offset, bg0.amplitude_slope,
                                   bg0.phase_offset, bg0.phase_slope]])

    n_res = len(res_names)
    m = omega.size
    w = omega - w_ref

    def residual(u):
        pars = ref + scale * u
        res, state = resonance(pars[:n_res])
        a0, a1, b0, b1 = pars[n_res:]
        amp = a0 + a1 * w
        rot = np.exp(1j * (b0 + b1 * w))

        def jacobian():
            # each complex column, times its parameter's scale, goes straight
            # into the engine's stacked (2m, n) matrix
            bg = amp * rot
            cols = [col * bg for col in resonance_jac(pars[:n_res], state)]
            cols += [res * rot, res * w * rot, 1j * res * bg, 1j * w * res * bg]
            jmat = np.empty((2 * m, scale.size))
            for j, col in enumerate(cols):
                c = col * scale[j]
                jmat[:m, j] = c.real
                jmat[m:, j] = c.imag
            return jmat

        # (res * amp) * rot rounds unlike res * bg; bg is formed only for
        # the Jacobian, and only at accepted points
        return res * amp * rot - values, jacobian

    fit = least_squares(residual, (phys0 - ref) / scale, names=names)
    fit.params = ref + scale * fit.params
    fit.uncertainties = scale * fit.uncertainties

    # rates enter the model through |.| and angles through exp(i.); report
    # them positive and wrapped, and the background from the same values
    pars = fit.params
    for i, name in enumerate(names):
        if name in ("kappa_i", "kappa_e", "g"):
            pars[i] = abs(pars[i])
        elif name in ("theta", "phase_offset"):
            pars[i] = _wrap_angle(pars[i])
    background = BackgroundModel(*(float(v) for v in pars[n_res:]),
                                 circle_rotation=float(pars[names.index("theta")]),
                                 reference_frequency=w_ref)

    final = values / background.evaluate(omega)
    final = 1.0 - (1.0 - final) * np.exp(-1j * background.circle_rotation)
    fit.extras["background"] = background
    fit.extras["corrected_trace"] = ComplexTrace(trace.frequency_hz, final)
    if model == "bare":
        fit.extras["kappa"] = float(pars[1] + pars[2])
    return fit


def fit_lorentzian(trace: SpectrumTrace) -> FitResult:
    """Fit offset + A*(w/2)^2 / ((f - f0)^2 + (w/2)^2) to a spectrum.

    Frequencies are in Hz as stored in the trace.  Initial guesses come from
    the maximum, the median floor and the half-maximum crossings.
    """
    _require_points(len(trace))
    f = trace.frequency_hz
    y = trace.values

    offset0 = float(np.median(y))
    i0 = int(np.argmax(y))
    amp0 = float(y[i0] - offset0)
    if amp0 <= 0:
        raise DomainError("no peak visible above the median floor")
    center0 = float(f[i0])
    fwhm0 = float(_half_width(f, y, i0, offset0 + 0.5 * amp0))

    def residual(pars):
        off, amp, center, fwhm = pars
        hw2 = (fwhm / 2.0) ** 2
        dev = f - center
        den = dev ** 2 + hw2
        # d/d(offset, amplitude, center, fwhm); fwhm enters squared
        return off + amp * hw2 / den - y, lambda: np.column_stack([
            np.ones_like(f), hw2 / den, 2.0 * amp * hw2 * dev / den ** 2,
            amp * (fwhm / 2.0) * dev ** 2 / den ** 2])

    fit = least_squares(residual, np.array([offset0, amp0, center0, fwhm0]),
                        names=("offset", "amplitude", "center", "fwhm"))
    fit.params[3] = abs(fit.params[3])
    if fit.params[3] <= 0:
        raise DomainError("degenerate peak: fitted width is not positive")
    return fit


def fit_backaction(offsets, frequency_shifts, damping_shifts) -> FitResult:
    """Simultaneous fit of the sideband backaction pair to (g, kappa_eff).

    Both curves share the grid and are weighted equally:
    shift = 4 g^2 d/(k^2+4d^2), damping = 4 g^2 k/(k^2+4d^2).
    """
    d = np.asarray(offsets, dtype=float)
    shift = np.asarray(frequency_shifts, dtype=float)
    damping = np.asarray(damping_shifts, dtype=float)
    if d.shape != shift.shape or d.shape != damping.shape:
        raise DomainError("offset grid and data arrays must share one shape")
    scale = max(np.max(np.abs(shift)), np.max(np.abs(damping)))
    if scale == 0:
        raise DomainError("backaction data is identically zero")

    i0 = int(np.argmax(damping))
    kappa0 = (_half_width(d, damping, i0, damping[i0] / 2.0) if damping[i0] > 0
              else (d[-1] - d[0]) / 4.0)
    g0 = 0.5 * math.sqrt(abs(damping[i0]) * kappa0)

    def residual(pars):
        g, kappa = abs(pars[0]), abs(pars[1])
        k = max(kappa, 1e-12)
        ba = backaction_sideband(d, g, k, "red")

        def jacobian():
            # d/d(g, kappa_eff) of the shift rows, then the damping rows,
            # through |.| and the floor on k
            den = k ** 2 + 4.0 * d ** 2
            dg = 8.0 * g / den * np.array([d, np.full_like(d, k)])
            dk = 4.0 * g ** 2 / den ** 2 * np.array([-2.0 * k * d, 4.0 * d ** 2 - k ** 2])
            return np.column_stack([_sign(pars[0]) * dg.ravel(),
                                    (_sign(pars[1]) if kappa > 1e-12 else 0.0) * dk.ravel()])

        return np.concatenate([ba.frequency_shift - shift, ba.damping_shift - damping]), jacobian

    fit = least_squares(residual, np.array([g0, kappa0]), names=("g", "kappa_eff"))
    fit.params = np.abs(fit.params)
    return fit


def fit_flux_arch(flux_bias, frequencies, total_inductance: float | None = None) -> FitResult:
    """Fit the frequency-vs-flux arch to (omega0(0), dilution, widening).

    ``flux_bias`` in PHI_0 units, ``frequencies`` in rad/s, at least 5 points
    inside a single arch.  When ``total_inductance`` is given the junction
    inductance and critical current of the fitted :class:`SquidSpec` are
    reported in the extras.  Points spanning more than one arch raise
    :class:`DomainError`; reduce them to one period first.
    """
    phi = np.asarray(flux_bias, dtype=float)
    om = np.asarray(frequencies, dtype=float)
    if phi.shape != om.shape or phi.size < 5:
        raise DomainError("need >= 5 (flux, frequency) points on a shared grid")
    if np.ptp(om) < 1e-9 * np.mean(om):
        raise DomainError("arch is flat: dilution and widening are not identifiable")

    order = np.argsort(phi)
    phi_s, om_s = phi[order], om[order]
    i_top = int(np.argmax(om_s))
    tol = 0.05 * np.ptp(om_s)
    left, right = om_s[:i_top + 1], om_s[i_top:]
    if np.any(np.diff(left) < -tol) or np.any(np.diff(right) > tol):
        raise DomainError(
            "frequency rises again away from the arch top: points appear to "
            "span multiple arches; calibrate the flux axis to one period first")

    # coarse scan over the widening; the other two parameters are linear in
    # 1/omega^2 = a + b*sec(pi*gamma_l*phi)
    best = None
    y = 1.0 / om ** 2
    for gamma_l in np.linspace(0.05, 2.0, 118):
        c = np.cos(np.pi * gamma_l * phi)
        if np.any(c <= 0.05):
            continue
        design = np.column_stack([np.ones_like(phi), 1.0 / c])
        coef, res, *_ = np.linalg.lstsq(design, y, rcond=None)
        a, b = coef
        if a + b <= 0 or a < 0:
            continue
        sse = float(res[0]) if res.size else float(np.sum((design @ coef - y) ** 2))
        if best is None or sse < best[0]:
            best = (sse, gamma_l, a, b)
    if best is None:
        raise DomainError("no single-arch model matches the points")
    _, gamma_l0, a, b = best
    omega00 = 1.0 / math.sqrt(a + b)
    dilution0 = a / (a + b)

    def residual(pars):
        om0, dil, gl = pars
        angle = np.pi * gl * phi
        c = np.maximum(np.cos(angle), 1e-9)
        model, derivatives = _arch(angle, c, om0, dil)

        def jacobian():
            # d/d(omega0, dilution, gamma_l); the clamped cosine does not move with gamma_l
            d_om0, d_dil, d_u = derivatives()
            return np.column_stack([d_om0, d_dil, np.where(c > 1e-9, d_u * np.pi * phi, 0.0)])

        return model - om, jacobian

    fit = least_squares(residual, np.array([omega00, dilution0, gamma_l0]),
                        names=("omega0", "dilution", "gamma_l"))
    om0, dil, gl = fit.params
    if not 0 < dil < 1 or 1.0 - dil < 1e-6:
        raise DomainError(f"fitted dilution {dil} leaves the widening unconstrained")
    if total_inductance is not None:
        spec = SquidSpec(om0, dil, gl, total_inductance)
        fit.extras["junction_inductance"] = spec.junction_inductance
        fit.extras["critical_current"] = spec.critical_current
    return fit
