"""Parameter extraction from measured or synthesized traces.

The central routine is :func:`fit_resonance`, a background-corrected fit of
a complex reflection trace on top of a slowly varying instrumental background:

1. refuse a trace whose |S11| shows no dip, mask the resonance region
   (within 2 initial-guess linewidths of the initial-guess center) and
   estimate the background (a0 + a1*w) * exp(i(b0 + b1*w)) from the
   remaining baseline in closed form: lines through |S11| and through its
   phase, read against the line through the unwrapped phase of the longer
   baseline run;
2. seed the resonance in closed form from the background-divided data s.
   The bare model solves one complex linear least-squares problem on the
   masked points, (s - 1) u + c = -2i(w - w_c)(s - 1) with
   u = kappa - 2i(omega0 - w_c) and c = 2 kappa_e e^{i theta} (Levy's
   linearisation of a rational fit), as a complex line: u from the
   deviations of s - 1 about its mean, then c from the means.  The pumped model's center sits at the
   midpoint of the outermost points at or below half depth of |s|, between
   its two hybrid-mode dips; without a given g, g is half the distance
   between the deepest points on either side of that center, and kappa_i
   follows from the dip width, read as a hybrid-mode width (kappa + gamma0)/2
   only when the two dips are resolved (2g above the width);
3. refresh the background once, for both models: the seed's dip D
   (theta = 0) gives theta = arg sum conj(D)(1 - s), and the data divided
   by 1 - D e^{i theta} are read as in step 1, against the first estimate;
   the bare seed is then solved again on the refreshed s;
4. fit resonance and background jointly from that seed, evaluating the
   model once per residual (the background phase factor as cos + i sin)
   and writing the Jacobian from that evaluation row by row into the fit's
   one (n, m) complex buffer, each row's parameter scale folded into the
   factor the row is already multiplied by.  The engine reads the buffer
   through its transpose without a copy, before the next Jacobian refills
   it.  As this is the only nonlinear fit, the result's iterations,
   evaluations and message describe it whole.

Its background parameters carry the ``background.*`` names that
:func:`synth.background_from` reads back (theta is ``circle_rotation``), and
its extras ``background.reference_frequency``, the fitted background
(``extras["background"]``) and a background-corrected trace (divided by the
background, rotation removed).  The other entry points fit Lorentzian
spectra, backaction curves and the flux arch (the arch model and the junction
functions of :mod:`squid`); like this one, each hands the engine its analytic Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import (BackgroundModel, _cis, _pumped_reflection, backaction_sideband,
                       s11_bare)
from .errors import DomainError
from .lsq import FitResult, least_squares
from .squid import _arch, critical_current, junction_inductance
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
_ARCH_NOISE_SIGMAS = 6.0      # a climb this many noise sigmas from the arch top is a new arch


def _require_points(n, minimum=_MIN_POINTS):
    if n < minimum:
        raise DomainError(f"need at least {minimum} points for a fit, got {n}")


def _median(x):
    """Median of a finite 1-D array, bit for bit as :func:`numpy.median`
    gives it: the mean of the middle one or two values, found with
    :func:`numpy.partition`.  Unlike numpy.median, it does not load numpy.ma."""
    half, odd = divmod(x.size, 2)
    kth = half if odd else (half - 1, half)
    return np.partition(x, kth)[half + odd - 1:half + 1].mean()


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
    the outer tenths of the trace, which must be positive."""
    i0 = int(np.argmin(mag))
    edge = max(1, mag.size // 10)
    depth = float(_median(np.concatenate([mag[:edge], mag[-edge:]]))) - mag[i0]
    if depth <= 0:
        raise DomainError("no dip visible below the baseline of |S11|")
    return i0, depth


def _initial_dip(omega, mag):
    """Center and linewidth guesses from the deepest dip of |S11|."""
    i0, depth = _dip_depth(mag)
    return omega[i0], _half_width(omega, -mag, i0, -(mag[i0] + 0.5 * depth))


def _dip_midpoint(omega, mag):
    """Midpoint of the outermost points at or below half the depth of |S11|.

    A split dip (the two hybrid modes of a strongly pumped resonance) gives
    its center rather than the deeper of its halves.
    """
    i0, depth = _dip_depth(mag)
    below = np.flatnonzero(mag <= mag[i0] + 0.5 * depth)
    return 0.5 * (omega[below[0]] + omega[below[-1]])


def _split_dip_seed(omega, mag, center):
    """Half the distance between the deepest points of |S11| on either side
    of ``center``: the coupling rate g of two hybrid-mode dips, or of the
    dips that flank a transparency window."""
    left = omega < center
    i_left = np.argmin(np.where(left, mag, np.inf))
    i_right = np.argmin(np.where(left, np.inf, mag))
    return 0.5 * float(omega[i_right] - omega[i_left])


def _bare_seed(omega, s, center, width):
    """(omega0, kappa_i, kappa_e, theta) of the bare resonance from one linear
    least-squares fit to background-divided points ``s`` (Levy, IRE Trans.
    Autom. Control AC-4:37, 1959).

    The rotated response s = 1 - 2 ke e^{i theta}/(kappa + 2i(omega - omega0))
    gives d u + c = b with d = s - 1 and b = -2i (omega - center) d, linear in
    u = kappa - 2i(omega0 - center) and c = 2 ke e^{i theta}.  Its two
    unknowns are solved in closed form about the mean of d, as a complex
    line through (d, b).  When that gives kappa <= 0 or ke outside
    (0, kappa), the seed is the dip's center and ``width`` shared equally by
    the two rates.
    """
    d = s - 1.0
    b = -2j * (omega - center) * d
    d_mid = d.mean()
    dd = d - d_mid
    u = np.vdot(dd, b) / np.vdot(dd, dd).real
    c = b.mean() - u * d_mid
    kappa, ke = u.real, 0.5 * abs(c)
    if kappa > 0 and 0 < ke < kappa:
        return np.array([center - 0.5 * u.imag, kappa - ke, ke, np.angle(c)])
    return np.array([center, 0.5 * width, 0.5 * width, 0.0])


def _baseline_background(omega, x, base, ref):
    """Linear amplitude/phase background of ``x`` on the baseline points
    ``base``, about ``ref``'s reference frequency: a line through |x|, and
    ``ref``'s phase line plus a line through the phase of x against it.  A
    reference that follows the phase keeps that difference small, so it
    needs no unwrapping."""
    w = omega[base] - ref.reference_frequency
    a0, a1 = _line_fit(w, np.abs(x[base]))
    b0, b1 = _line_fit(w, np.angle(x[base] / ref.evaluate(omega[base])))
    return BackgroundModel(float(a0), float(a1), float(_wrap_angle(ref.phase_offset + b0)),
                           float(ref.phase_slope + b1),
                           reference_frequency=ref.reference_frequency)


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
    kappa_e), "pumped" (omega0, kappa_i, g, lf_frequency) with fixed
    ``pumped = {"kappa_e": ..., "gamma0": ..., "detuning": ...}``, each with
    the rotation theta and the four background.* lines.  The extras hold the
    fitted background, the corrected trace and, for "bare", the linewidth.
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

    # background from the off-resonant baseline, read against the line
    # through the unwrapped phase of its longer run: an overcoupled dip winds
    # the phase by a full turn, so the runs either side of it may sit on
    # branches 2 pi apart
    mask = np.abs(omega - center0) <= _MASK_HALFWIDTHS * width0
    base = ~mask
    if base.sum() < _MIN_BASELINE_FRACTION * omega.size:
        raise DomainError(
            f"only {base.sum()} of {omega.size} points are off-resonant; "
            f"need {_MIN_BASELINE_FRACTION:.0%}")
    run = base & (omega < center0)
    if 2 * run.sum() < base.sum():
        run = base & ~run
    b0, b1 = _line_fit(omega[run] - w_ref, np.unwrap(np.angle(values[run])))
    bg0 = _baseline_background(omega, values, base, BackgroundModel(
        phase_offset=b0, phase_slope=b1, reference_frequency=w_ref))

    # resonance seed from the background-divided data.  The engine sees
    # dimensionless parameters (frequency as offset from the initial center
    # in units of the initial width) so the normal matrix stays well
    # conditioned for narrow lines on large carriers.
    corrected = values / bg0.evaluate(omega)
    near = mask if mask.sum() >= 8 else np.ones_like(mask)

    # resonance(pars) returns the resonance term and the intermediates that
    # resonance_jac(pars, state, bg, out) turns into its complex columns,
    # times the background bg, written into the rows of out
    if model == "bare":
        res_names = ("omega0", "kappa_i", "kappa_e", "background.circle_rotation")
        res_ref = np.array([center0, 0.0, 0.0, 0.0])
        res_scale = np.array([width0, width0, width0, 1.0])
        res0 = _bare_seed(omega[near], corrected[near], center0, width0)

        def resonance(pars):
            om0, ki, ke, theta = pars
            rot = np.exp(1j * theta)
            dip = 1.0 - s11_bare(omega, om0, abs(ki), abs(ke))
            return 1.0 - dip * rot, rot

        def resonance_jac(pars, rot, bg, out):
            # d/d(omega0, kappa_i, kappa_e, theta) of the resonance term,
            # each times its parameter's scale, with dip = 2|ke| z and
            # z = 1/(|ki| + |ke| + 2i(omega - omega0)); s11_bare divides 2|ke|
            # by that denominator instead, so z has no value to share with it
            om0, ki, ke, _ = pars
            z = 1.0 / (abs(ki) + abs(ke) + 2j * (omega - om0))
            zf = z * (rot * bg)
            zzf = z * zf
            np.multiply(zzf, -4j * abs(ke) * width0, out=out[0])
            np.multiply(zzf, 2.0 * _sign(ki) * abs(ke) * width0, out=out[1])
            np.multiply(zf - abs(ke) * zzf, -2.0 * _sign(ke) * width0, out=out[2])
            np.multiply(zf, -2j * abs(ke), out=out[3])
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
        mag = np.abs(corrected)
        center0 = _dip_midpoint(omega, mag)
        g0_guess = float(pumped["g"]) if "g" in pumped else _split_dip_seed(omega, mag, center0)
        lf_guess = float(pumped.get("lf_frequency", abs(detuning_fix)))
        # two resolved hybrid-mode dips each have the width (kappa + gamma0)/2
        kappa0 = 2.0 * width0 - gamma0_fix if 2.0 * g0_guess > width0 else width0
        g_scale, lf_scale = max(width0, g0_guess), max(width0, gamma0_fix)
        res_names = ("omega0", "kappa_i", "g", "lf_frequency", "background.circle_rotation")
        res_ref = np.array([center0, 0.0, 0.0, lf_guess, 0.0])
        res_scale = np.array([width0, width0, g_scale, lf_scale, 1.0])
        res0 = np.array([center0, max(kappa0 - ke_fix, 0.05 * width0), g0_guess,
                         lf_guess, 0.0])

        def resonance(pars):
            om0, ki, g, lf, theta = pars
            om = omega - (om0 + detuning_fix)
            s, terms = _pumped_reflection(om, abs(ki), ke_fix, abs(lf), gamma0_fix, g,
                                          detuning_fix)
            rot = np.exp(1j * theta)
            return 1.0 - (1.0 - s) * rot, (om, terms, rot)

        def resonance_jac(pars, state, bg, out):
            # d/d(omega0, kappa_i, g, lf_frequency, theta) of the resonance
            # term, each times its parameter's scale (real, so it passes the
            # conjugation), from the intermediates of dynamics._pumped_terms.
            # With the pump offset Om = omega - omega0 - detuning, a = 2i lf g^2 and
            # p = lf^2 - Om^2 - i Om gamma0, s11_pumped evaluates
            # s = 1 - ke chi_c (1 + t), t = a chi_c chi_lf,
            # 1/chi_lf = p - a (chi_c - chi_cm), and the term is
            # 1 - conj(1 - s) e^{i theta}: column j is conj(ds/dp_j) e^{i theta},
            # and d/dtheta is conj(i (1 - s)) e^{i theta}.  lf enters as |lf|.
            _, ki, g, lf, _ = pars
            om, (chi_c, chi_cm, a, p, chi_lf), rot = state
            lf_abs = abs(lf)
            t = a * chi_c * chi_lf
            c2 = chi_c * chi_c
            f = ke_fix * c2 * chi_lf * chi_lf
            # 2 ds/dkappa; omega0 and kappa move chi_c and chi_cm alike, so
            # ds/domega0 = -ds/dOm shares it
            ds_dk2 = ke_fix * c2 * (1.0 + 2.0 * t) + a * a * f * (c2 - chi_cm * chi_cm)
            out[0] = (1j * width0) * ds_dk2 + (a * width0) * f * (2.0 * om + 1j * gamma0_fix)
            np.multiply(ds_dk2, 0.5 * _sign(ki) * width0, out=out[1])
            np.multiply(p * f, -4j * lf_abs * g * g_scale, out=out[2])
            np.multiply((p - 2.0 * lf_abs ** 2) * f, -2j * g ** 2 * _sign(lf) * lf_scale,
                        out=out[3])
            np.multiply(chi_c * (1.0 + t), 1j * ke_fix, out=out[4])
            np.conjugate(out, out=out)
            out *= rot * bg

    # one refresh of the background from the seed, with no loop: the seed's
    # dip D (theta = 0) is turned onto the data, divided out of it, and the
    # lines are refitted on the baseline, where the first estimate still
    # carried the resonance's tails
    res0[-1] = 0.0
    dip = 1.0 - resonance(res0)[0]
    res0[-1] = np.angle(np.vdot(dip, 1.0 - corrected))
    bg0 = _baseline_background(omega, values / (1.0 - dip * np.exp(1j * res0[-1])), base, bg0)
    if model == "bare":
        res0 = _bare_seed(omega[near], values[near] / bg0.evaluate(omega[near]),
                          center0, width0)

    # joint fit of resonance and background, seeded by the closed forms
    names = res_names + ("background.amplitude_offset", "background.amplitude_slope",
                         "background.phase_offset", "background.phase_slope")
    ref = np.concatenate([res_ref, [0.0, 0.0, 0.0, 0.0]])
    scale = np.concatenate([res_scale, [1.0, 1.0 / span, 1.0, 1.0 / span]])
    phys0 = np.concatenate([res0, [bg0.amplitude_offset, bg0.amplitude_slope,
                                   bg0.phase_offset, bg0.phase_slope]])

    n_res = len(res_names)
    w = omega - w_ref
    w_scaled = w / span  # the slopes' columns carry their scale 1/span in w
    # row j of the fit's one (n, m) buffer is the complex column of
    # parameter j, scaled; each thunk refills it, and the engine reads its
    # transpose without a copy before the next thunk call
    jac = np.empty((scale.size, omega.size), complex)

    def residual(u):
        pars = ref + scale * u
        res, state = resonance(pars[:n_res])
        a0, a1, b0, b1 = pars[n_res:]
        amp = a0 + a1 * w
        rot = _cis(b0 + b1 * w)

        def jacobian():
            bg = amp * rot
            resonance_jac(pars[:n_res], state, bg, jac[:n_res])
            np.multiply(res, rot, out=jac[n_res])
            np.multiply(jac[n_res], w_scaled, out=jac[n_res + 1])
            np.multiply(res, 1j * bg, out=jac[n_res + 2])
            np.multiply(jac[n_res + 2], w_scaled, out=jac[n_res + 3])
            return jac.T

        # (res * amp) * rot rounds unlike res * bg; bg is formed only for
        # the Jacobian, and only at accepted points
        return res * amp * rot - values, jacobian

    fit = least_squares(residual, (phys0 - ref) / scale, names=names)
    fit.params = ref + scale * fit.params
    fit.uncertainties = scale * fit.uncertainties

    # rates and the low frequency enter the model through |.| and angles
    # through exp(i.); report them positive and wrapped, and the background
    # from the same values
    pars = fit.params
    for i, name in enumerate(names):
        if name in ("kappa_i", "kappa_e", "g", "lf_frequency"):
            pars[i] = abs(pars[i])
        elif name in ("background.circle_rotation", "background.phase_offset"):
            pars[i] = _wrap_angle(pars[i])
    background = BackgroundModel(reference_frequency=w_ref, **{
        name.removeprefix("background."): float(v)
        for name, v in zip(names, pars) if name.startswith("background.")})

    final = values / background.evaluate(omega)
    final = 1.0 - (1.0 - final) * np.exp(-1j * background.circle_rotation)
    fit.extras["background"] = background
    fit.extras["background.reference_frequency"] = w_ref
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

    offset0 = float(_median(y))
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
        model_shift, model_damping = backaction_sideband(d, g, k, "red")

        def jacobian():
            # d/d(g, kappa_eff) of the shift rows, then the damping rows,
            # through |.| and the floor on k
            den = k ** 2 + 4.0 * d ** 2
            dg = 8.0 * g / den * np.array([d, np.full_like(d, k)])
            dk = 4.0 * g ** 2 / den ** 2 * np.array([-2.0 * k * d, 4.0 * d ** 2 - k ** 2])
            return np.column_stack([_sign(pars[0]) * dg.ravel(),
                                    (_sign(pars[1]) if kappa > 1e-12 else 0.0) * dk.ravel()])

        return np.concatenate([model_shift - shift, model_damping - damping]), jacobian

    fit = least_squares(residual, np.array([g0, kappa0]), names=("g", "kappa_eff"))
    fit.params = np.abs(fit.params)
    return fit


def fit_flux_arch(flux_bias, frequencies, total_inductance: float | None = None) -> FitResult:
    """Fit the frequency-vs-flux arch to (omega0(0), dilution, widening).

    ``flux_bias`` in PHI_0 units, ``frequencies`` in rad/s, at least 5 points
    inside a single arch.  Given ``total_inductance``, the extras hold the junction
    inductance and critical current of the fitted dilution.  A fitted omega0 or
    gamma_l <= 0 raises :class:`DomainError`, and so do points spanning more than
    one arch; reduce them to one period first.  They are judged to do so when,
    walking away from the highest point, the frequency climbs above the lowest
    point passed by more than 5% of its span and more than six times the noise
    the second differences show.
    """
    phi = np.asarray(flux_bias, dtype=float)
    om = np.asarray(frequencies, dtype=float)
    if phi.shape != om.shape or phi.size < 5:
        raise DomainError("need >= 5 (flux, frequency) points on a shared grid")
    if np.ptp(om) < 1e-9 * np.mean(om):
        raise DomainError("arch is flat: dilution and widening are not identifiable")

    # walking away from the top, the frequency of one arch only falls: a climb
    # above the lowest point passed so far is a second arch, unless the noise
    # explains it.  The noise is estimated from the second differences, which
    # the smooth arch barely moves: for Gaussian noise of std sigma, their
    # median magnitude is 0.6745 * sqrt(6) * sigma.
    om_s = om[np.argsort(phi)]
    i_top = int(np.argmax(om_s))
    climb = max(np.max(side - np.minimum.accumulate(side))
                for side in (om_s[i_top::-1], om_s[i_top:]))
    sigma = _median(np.abs(np.diff(om_s, 2))) / (0.6745 * math.sqrt(6.0))
    if climb > max(0.05 * np.ptp(om_s), _ARCH_NOISE_SIGMAS * sigma):
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
    if om0 <= 0 or gl <= 0:
        raise DomainError(f"fitted omega0 {om0} and gamma_l {gl} must be positive")
    if not 0 < dil < 1 or 1.0 - dil < 1e-6:
        raise DomainError(f"fitted dilution {dil} leaves the widening unconstrained")
    if total_inductance is not None:
        l_j = junction_inductance(dil, total_inductance)
        fit.extras.update(junction_inductance=l_j, critical_current=critical_current(l_j))
    return fit
