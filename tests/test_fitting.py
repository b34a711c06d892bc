import math

import numpy as np
import pytest

from photonpressure.dynamics import (backaction_sideband, s11_bare,
                                     s11_pumped)
from photonpressure.errors import DomainError
from photonpressure.fitting import (BackgroundModel, fit_backaction,
                                    fit_flux_arch, fit_lorentzian,
                                    fit_resonance)
from photonpressure.squid import SquidSpec, squid_frequency
from photonpressure.synth import NoiseSpec, make_rng, synth_s11
from photonpressure.traces import ComplexTrace, SpectrumTrace

TWO_PI = 2 * math.pi

HF_SET = dict(omega0=TWO_PI * 5.844e9, kappa_i=TWO_PI * 163e3, kappa_e=TWO_PI * 28e3)
LF_SET = dict(omega0=TWO_PI * 391.18e6, kappa_i=TWO_PI * 7.4e3, kappa_e=TWO_PI * 13.8e3)


def make_bare_trace(par, n=2001, halfwidths=4.0, theta=0.0, background=None,
                    sigma=0.0, seed=0):
    kappa = par["kappa_i"] + par["kappa_e"]
    f0 = par["omega0"] / TWO_PI
    span = 2 * halfwidths * kappa / TWO_PI
    freq = np.linspace(f0 - span / 2, f0 + span / 2, n)
    vals = s11_bare(TWO_PI * freq, par["omega0"], par["kappa_i"], par["kappa_e"])
    if theta:
        vals = 1.0 - (1.0 - vals) * np.exp(1j * theta)
    if background is not None:
        vals = vals * background.evaluate(TWO_PI * freq)
    if sigma:
        rng = make_rng(seed, 0)
        vals = vals + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ComplexTrace(freq, vals)


def criterion_6_trace(par, seed):
    """Noisy trace of acceptance criterion 6: 1201 points over 8 linewidths,
    rotation 0.1 and a linear background."""
    kappa = par["kappa_i"] + par["kappa_e"]
    f0, span = par["omega0"] / TWO_PI, 8 * kappa / TWO_PI
    freq = np.linspace(f0 - span / 2, f0 + span / 2, 1201)
    return make_bare_trace(par, n=1201, theta=0.1, background=linear_background(freq),
                           sigma=0.01, seed=seed)


def linear_background(freq_hz):
    w_ref = math.pi * (freq_hz[0] + freq_hz[-1])
    span = TWO_PI * (freq_hz[-1] - freq_hz[0])
    return BackgroundModel(amplitude_offset=0.93, amplitude_slope=0.04 / span,
                           phase_offset=0.4, phase_slope=1.1 / span,
                           reference_frequency=w_ref)


def make_pumped_trace(scene, n=2401):
    """Noiseless transparency trace of ``scene`` on a linear background, and
    the fixed rates a pumped fit takes."""
    om0 = scene["hf.omega0"]
    freq = np.linspace(om0 / TWO_PI - 1.2e6, om0 / TWO_PI + 1.2e6, n)
    vals = s11_pumped(TWO_PI * freq, om0, scene["hf.kappa_i"], scene["hf.kappa_e"],
                      scene["lf.omega0"], scene["lf.gamma0"], scene["drive.g"],
                      scene["drive.detuning"])
    bg = linear_background(freq)
    fixed = {"kappa_e": scene["hf.kappa_e"], "gamma0": scene["lf.gamma0"],
             "detuning": scene["drive.detuning"]}
    return ComplexTrace(freq, vals * bg.evaluate(TWO_PI * freq)), fixed


def engine_calls(monkeypatch, fit, *args, **kwargs):
    """Run ``fit(*args, **kwargs)``; returns the (residual, x0) of each of its
    engine calls."""
    from photonpressure import fitting

    calls = []
    original = fitting.least_squares

    def spy(residual, x0, **engine_kwargs):
        calls.append((residual, np.array(x0)))
        return original(residual, x0, **engine_kwargs)

    monkeypatch.setattr(fitting, "least_squares", spy)
    fit(*args, **kwargs)
    return calls


def jacobian_costs(monkeypatch):
    """Make every engine call of :mod:`fitting` append to the returned list
    the cost at each point whose Jacobian the engine asks for."""
    from photonpressure import fitting

    costs = []
    original = fitting.least_squares

    def spy(residual, x0, **engine_kwargs):
        def spied(u):
            r, thunk = residual(u)

            def spied_thunk():
                costs.append(float(np.sum(np.abs(r) ** 2)))
                return thunk()

            return r, spied_thunk

        return original(spied, x0, **engine_kwargs)

    monkeypatch.setattr(fitting, "least_squares", spy)
    return costs


def check_jacobian(residual, u, steps):
    """The Jacobian that ``residual(u)`` hands the engine matches central
    differences with ``steps`` at 1e-6, column by column."""

    def stacked(values):
        return np.concatenate([values.real, values.imag]) if np.iscomplexobj(values) else values

    analytic = stacked(residual(u)[1]())   # complex columns stack like the residual
    assert analytic.shape == (stacked(residual(u)[0]).size, u.size)
    for j in range(u.size):
        h = np.zeros(u.size)
        h[j] = steps[j]
        # divide by the step as represented: a center on a 5.8 GHz carrier
        # rounds to 1e-6 Hz
        column = stacked(residual(u + h)[0] - residual(u - h)[0]) / ((u + h)[j] - (u - h)[j])
        err = np.linalg.norm(column - analytic[:, j]) / np.linalg.norm(analytic[:, j])
        assert err < 1e-6, (u, j, err)


def check_fit_jacobian(monkeypatch, trace, **fit_kwargs):
    """Fit ``trace``; it must make one engine call, with an analytic Jacobian
    that matches central differences of its residual at 1e-6, on either side
    of zero for parameters 1 and 2 (bare: kappa_i, kappa_e; pumped: kappa_i,
    g), which enter through |.| or squared."""
    calls = engine_calls(monkeypatch, fit_resonance, trace, **fit_kwargs)
    assert len(calls) == 1
    residual, x0 = calls[0]
    rng = np.random.default_rng(4)
    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        u = x0 + 0.1 * rng.standard_normal(x0.size)
        u[1:3] *= signs
        # the engine's parameters are scaled to linewidths, so one step
        # serves every column
        check_jacobian(residual, u, np.full(u.size, 1e-4))


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list its calls fill."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFitResonanceBare:
    @pytest.mark.parametrize("par", [HF_SET, LF_SET], ids=["hf", "lf"])
    def test_noiseless_recovery_with_background(self, par):
        freq = np.linspace(par["omega0"] / TWO_PI - 1e6, par["omega0"] / TWO_PI + 1e6, 3)
        trace = make_bare_trace(par, theta=0.15, background=linear_background(freq))
        fit = fit_resonance(trace)
        assert fit.converged
        assert abs(fit.value("omega0") - par["omega0"]) / par["omega0"] < 1e-8
        assert abs(fit.value("kappa_i") - par["kappa_i"]) / par["kappa_i"] < 1e-3
        assert abs(fit.value("kappa_e") - par["kappa_e"]) / par["kappa_e"] < 1e-3
        assert fit.value("theta") == pytest.approx(0.15, abs=1e-6)
        assert fit.extras["background"].amplitude_offset == pytest.approx(0.93, abs=1e-6)

    def test_identity_background_exact_recovery(self):
        trace = make_bare_trace(HF_SET)
        fit = fit_resonance(trace)
        for name in ("omega0", "kappa_i", "kappa_e"):
            assert abs(fit.value(name) - HF_SET[name]) / HF_SET[name] < 1e-10
        bg, span = fit.extras["background"], TWO_PI * np.ptp(trace.frequency_hz)
        assert abs(bg.amplitude_offset - 1.0) < 1e-8
        assert abs(bg.amplitude_slope) * span < 1e-8
        assert abs(bg.phase_offset) < 1e-8
        assert abs(bg.phase_slope) * span < 1e-8
        assert abs(bg.circle_rotation) < 1e-8

    def test_background_removal_idempotent(self):
        freq = np.linspace(5.8432e9, 5.8448e9, 1601)
        trace = make_bare_trace(HF_SET, theta=0.1, background=linear_background(freq))
        corrected = fit_resonance(trace).extras["corrected_trace"]
        second = fit_resonance(corrected)
        bg = second.extras["background"]
        span = TWO_PI * np.ptp(corrected.frequency_hz)
        assert abs(bg.amplitude_offset - 1.0) < 1e-6
        assert abs(bg.amplitude_slope) * span < 1e-6
        assert abs(bg.phase_offset) < 1e-6
        assert abs(bg.phase_slope) * span < 1e-6
        assert abs(bg.circle_rotation) < 1e-6

    def test_noisy_rates_within_two_percent(self):
        # additive complex noise sigma = 0.01 leaves the internal rate within
        # 2% for every seed
        worst = 0.0
        for seed in range(100):
            trace = make_bare_trace(HF_SET, n=1201, theta=0.05, sigma=0.01, seed=seed)
            fit = fit_resonance(trace)
            worst = max(worst, abs(fit.value("kappa_i") - HF_SET["kappa_i"])
                        / HF_SET["kappa_i"])
        assert worst < 0.02

    def test_background_phase_near_pi(self):
        # the fitted phase offset wraps at +-pi; the fit must still converge
        # there, so turning the whole trace by pi changes nothing else
        par = HF_SET
        clean = make_bare_trace(par, n=1201)
        w_ref = math.pi * (clean.frequency_hz[0] + clean.frequency_hz[-1])
        omega = TWO_PI * clean.frequency_hz
        kappa = par["kappa_i"] + par["kappa_e"]
        for seed in range(20):
            rng = make_rng(seed, 0)
            noise = 0.01 * (rng.standard_normal(1201) + 1j * rng.standard_normal(1201))
            fits = []
            for phase in (0.0, math.pi):
                bg = BackgroundModel(0.93, 0.0, phase, 0.0, reference_frequency=w_ref)
                vals = (clean.values + noise) * bg.evaluate(omega)
                fits.append(fit_resonance(ComplexTrace(clean.frequency_hz, vals)))
            for name in ("omega0", "kappa_i", "kappa_e"):
                diff = fits[1].value(name) - fits[0].value(name)
                assert abs(diff) / kappa < 1e-8, (seed, name)

    def test_diagnostics(self, monkeypatch):
        # the one engine call's own counts describe the whole fit
        costs = jacobian_costs(monkeypatch)
        trace = make_bare_trace(HF_SET, n=1201, theta=0.05, sigma=0.01, seed=3)
        fit = fit_resonance(trace)
        assert fit.converged and fit.message
        # one evaluation at the start and at least one per iteration, and a
        # Jacobian at the seed and at each accepted point, the returned one last
        assert 1 <= fit.iterations < fit.evaluations
        assert len(costs) == fit.iterations + 1
        assert np.all(np.diff(costs) <= 0)
        assert costs[-1] == pytest.approx(fit.residual_norm ** 2, rel=1e-12)
        params = ("omega0", "kappa_i", "kappa_e", "theta", "amplitude_offset",
                  "amplitude_slope", "phase_offset", "phase_slope")
        assert set(fit.as_dict()) == {*params, *(f"{n}_err" for n in params),
                                      "residual_norm", "iterations", "converged", "kappa"}

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        freq = np.linspace(5.8432e9, 5.8448e9, 601)
        check_fit_jacobian(monkeypatch, make_bare_trace(
            HF_SET, n=601, theta=0.1, background=linear_background(freq)))

    def test_model_evaluated_once_per_residual(self, monkeypatch):
        # the Jacobian reuses its residual's evaluation instead of a new one
        from photonpressure import fitting

        calls = count_calls(monkeypatch, fitting, "s11_bare")
        freq = np.linspace(5.8432e9, 5.8448e9, 601)
        fit = fit_resonance(make_bare_trace(HF_SET, n=601, theta=0.1, sigma=1e-3,
                                            background=linear_background(freq)))
        assert fit.iterations > 1
        assert len(calls) == fit.evaluations

    @pytest.mark.parametrize("par", [HF_SET, LF_SET], ids=["hf", "lf"])
    def test_no_rejected_tries_on_criterion_6_traces(self, monkeypatch, par):
        # the fit stops on the predicted decrease before it tries a step
        # whose decrease is lost in rounding: one residual call per iteration
        # and one at the seed, and a Jacobian at each of those points
        costs = jacobian_costs(monkeypatch)
        for seed in range(20):
            costs.clear()
            fit = fit_resonance(criterion_6_trace(par, seed))
            assert fit.converged, seed
            assert fit.evaluations == fit.iterations + 1, seed
            assert len(costs) == fit.iterations + 1, seed

    def test_phase_offset_wrapped_like_background(self):
        # a background phase just inside pi, turning by 3 rad over the span:
        # the fitted phase_offset is reported in [-pi, pi) and equals the
        # returned background's, whichever side of pi the fit ends on
        kappa = HF_SET["kappa_i"] + HF_SET["kappa_e"]
        span = 8.0 * kappa  # make_bare_trace's default 4 halfwidths, in rad/s
        bg = BackgroundModel(1.0, 0.0, math.pi - 1e-3, 3.0 / span,
                             reference_frequency=HF_SET["omega0"])
        for seed in range(40):
            fit = fit_resonance(make_bare_trace(HF_SET, n=1201, background=bg,
                                                sigma=0.01, seed=seed))
            phase = fit.value("phase_offset")
            assert -math.pi <= phase < math.pi, (seed, phase)
            assert phase == fit.extras["background"].phase_offset, seed

    def test_uncertainty_scales_with_trace_length(self):
        sizes = (128, 512, 2048)
        sigmas = []
        for n in sizes:
            vals = []
            for seed in (1, 2, 3):
                trace = make_bare_trace(HF_SET, n=n, sigma=0.01, seed=seed)
                vals.append(fit_resonance(trace).as_dict()["kappa_i_err"])
            sigmas.append(np.mean(vals))
        for a, b in zip(sigmas, sigmas[1:]):
            assert a / b == pytest.approx(2.0, rel=0.25)

    def test_insufficient_baseline_rejected(self):
        par = HF_SET
        trace = make_bare_trace(par, halfwidths=1.2)
        with pytest.raises(DomainError, match="span at least 5 estimated linewidths|"
                                              "points are off-resonant"):
            fit_resonance(trace)

    def test_too_few_points(self):
        freq = np.linspace(5.84e9, 5.85e9, 8)
        with pytest.raises(DomainError):
            fit_resonance(ComplexTrace(freq, np.ones(8, complex)))


# background and rotation axes of the sweep: amplitude slope (relative, per
# span), phase offset at 0 and just inside +-pi, phase slope (rad per span)
# and circle rotation theta
SWEEP_BACKGROUNDS = [(a1, b0, b1, theta)
                     for a1 in (-0.1, 0.1)
                     for b0 in (0.0, math.pi - 1e-3, -(math.pi - 1e-3))
                     for b1 in (-3.0, 0.0, 3.0)
                     for theta in (-0.5, 0.0, 0.5)]


def sweep_trace(ratio, sigma, case):
    """Bare hf trace with kappa_e/kappa_i = ``ratio``, the background and
    rotation of ``SWEEP_BACKGROUNDS[case]`` and noise ``sigma`` seeded by
    ``case``; returns the true parameters and the trace."""
    kappa = HF_SET["kappa_i"] + HF_SET["kappa_e"]
    par = dict(omega0=HF_SET["omega0"], kappa_i=kappa / (1.0 + ratio),
               kappa_e=kappa * ratio / (1.0 + ratio))
    a1, b0, b1, theta = SWEEP_BACKGROUNDS[case]
    span = 8.0 * kappa  # make_bare_trace's default 4 halfwidths, in rad/s
    bg = BackgroundModel(0.93, a1 * 0.93 / span, b0, b1 / span,
                         reference_frequency=par["omega0"])
    return par, make_bare_trace(par, n=1201, theta=theta, background=bg,
                                sigma=sigma, seed=case)


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.02])
@pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
def test_background_sweep_reaches_truth(ratio, sigma):
    # every background of the grid: the fit converges, noiseless traces give
    # the truth to 1e-8 (omega0 in linewidths) and noisy ones within 5 of
    # the fit's own uncertainties
    for case in range(len(SWEEP_BACKGROUNDS)):
        par, trace = sweep_trace(ratio, sigma, case)
        fit = fit_resonance(trace)
        assert fit.converged, case
        kappa = par["kappa_i"] + par["kappa_e"]
        for name in ("omega0", "kappa_i", "kappa_e"):
            err = abs(fit.value(name) - par[name])
            if sigma:
                assert err <= 5.0 * fit.as_dict()[name + "_err"], (case, name)
            else:
                scale = kappa if name == "omega0" else par[name]
                assert err <= 1e-8 * scale, (case, name, err / scale)


def _baseline_phase_reference(omega, values, base_idx):
    """Per-point reference for fitting._baseline_phase: phases keyed by index."""
    segments = np.split(base_idx, np.where(np.diff(base_idx) > 1)[0] + 1)
    segments.sort(key=len, reverse=True)
    anchor = segments[0]
    phase = {i: v for i, v in zip(anchor, np.unwrap(np.angle(values[anchor])))}
    w = omega[anchor]
    design = np.column_stack([np.ones_like(w), w - w.mean()])
    coef, *_ = np.linalg.lstsq(design, np.fromiter(phase.values(), float), rcond=None)
    for seg in segments[1:]:
        seg_phase = np.unwrap(np.angle(values[seg]))
        predicted = coef[0] + coef[1] * (omega[seg] - w.mean())
        shift = 2.0 * np.pi * np.round(np.median(seg_phase - predicted) / (2.0 * np.pi))
        for i, v in zip(seg, seg_phase - shift):
            phase[i] = v
    idx = np.array(sorted(phase))
    return idx, np.array([phase[i] for i in idx])


@pytest.mark.parametrize("gaps", [[(500, 700)], [(300, 600)], [(0, 100), (450, 500), (800, 850)]],
                         ids=["one-gap", "equal-halves", "three-gaps"])
def test_baseline_phase_matches_reference(gaps):
    # an overcoupled dip winds the phase by a full turn across each gap, so
    # the segments land on different branches and must be shifted
    from photonpressure.fitting import _baseline_phase

    omega = TWO_PI * np.linspace(5.8432e9, 5.8448e9, 900)
    rng = np.random.default_rng(len(gaps))
    phase = 9.0 * np.linspace(0, 1, 900) + 0.05 * rng.standard_normal(900)
    mask = np.zeros(900, bool)
    for a, b in gaps:
        mask[a:b] = True
        phase[b:] += TWO_PI
    values = 0.9 * np.exp(1j * phase)
    base_idx = np.where(~mask)[0]
    idx, expected = _baseline_phase_reference(omega, values, base_idx)
    assert np.array_equal(idx, base_idx)
    assert np.array_equal(_baseline_phase(omega, values, base_idx), expected)


class TestFitResonancePumped:
    def test_transparency_trace_recovery(self, presets):
        scene = presets["strong_coupling_B"]
        om0 = scene["hf.omega0"]
        trace, fixed = make_pumped_trace(scene)
        fit = fit_resonance(trace, model="pumped", pumped=fixed)
        assert fit.converged
        assert abs(fit.value("omega0") - om0) / om0 < 1e-8
        assert abs(fit.value("kappa_i") - scene["hf.kappa_i"]) / scene["hf.kappa_i"] < 1e-3
        assert abs(fit.value("g") - scene["drive.g"]) / scene["drive.g"] < 1e-3
        assert abs(fit.value("lf_frequency") - scene["lf.omega0"]) / scene["lf.omega0"] < 1e-6

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch, presets):
        trace, fixed = make_pumped_trace(presets["strong_coupling_B"], n=601)
        check_fit_jacobian(monkeypatch, trace, model="pumped", pumped=fixed)

    def test_model_evaluated_once_per_residual(self, monkeypatch, presets):
        # the Jacobian is built from the _pumped_terms of its residual's
        # evaluation, so the terms are computed once per residual call
        from photonpressure import dynamics

        trace, fixed = make_pumped_trace(presets["strong_coupling_B"], n=601)
        calls = count_calls(monkeypatch, dynamics, "_pumped_terms")
        fit = fit_resonance(trace, model="pumped", pumped=fixed)
        assert fit.iterations > 1
        assert len(calls) == fit.evaluations

    @pytest.mark.parametrize("label", ["A", "B", "C", "D"])
    def test_unseeded_fit_finds_g_or_is_not_converged(self, presets, label):
        # without a g seed, the center is seeded between the two hybrid-mode
        # dips; a fit that converged must hold the true g within 5 of its sigma
        scene = presets[f"strong_coupling_{label}"]
        om0 = scene["hf.omega0"]
        freq = om0 / TWO_PI + np.linspace(-2e6, 2e6, 2001)
        bg = BackgroundModel(0.8, 1e-8, 0.3, 2e-8, reference_frequency=om0)
        fixed = {"kappa_e": scene["hf.kappa_e"], "gamma0": scene["lf.gamma0"],
                 "detuning": scene["drive.detuning"]}
        for seed in range(100):
            trace = synth_s11("pumped", scene, freq, background=bg, noise=NoiseSpec(
                "additive-complex-gaussian", 0.005, seed=seed))
            fit = fit_resonance(trace, model="pumped", pumped=fixed)
            if fit.converged:
                err = abs(fit.value("g") - scene["drive.g"])
                assert err <= 5.0 * fit.as_dict()["g_err"], (seed, fit.value("g"))

    @pytest.mark.parametrize("key, value, message", [
        ("kappa_e", -1.0, "decay rates"),
        ("gamma0", 0.0, "linewidth must be positive"),
        ("gamma0", -1.0, "linewidth must be positive")])
    def test_bad_fixed_rate_is_domain_error(self, presets, key, value, message):
        # s11_pumped's checks, which the fit's residual no longer passes through
        trace, fixed = make_pumped_trace(presets["strong_coupling_B"], n=601)
        with pytest.raises(DomainError, match=message):
            fit_resonance(trace, model="pumped", pumped={**fixed, key: value})


class TestFitLorentzian:
    def make_spectrum(self, n=801, sigma=0.0, seed=0):
        truth = dict(offset=2.0, amplitude=5.0, center=5.844e9 + 1.5e3, fwhm=11e3)
        freq = np.linspace(-1e5, 1e5, n) + 5.844e9
        hw2 = (truth["fwhm"] / 2) ** 2
        y = truth["offset"] + truth["amplitude"] * hw2 / ((freq - truth["center"]) ** 2 + hw2)
        if sigma:
            rng = make_rng(seed, 0)
            y = y * (1 + sigma * rng.standard_normal(n))
        return truth, SpectrumTrace(freq, y)

    def test_noiseless_round_trip(self):
        truth, trace = self.make_spectrum()
        fit = fit_lorentzian(trace)
        for name, val in truth.items():
            assert abs(fit.value(name) - val) / abs(val) < 1e-10

    def test_center_stable_under_multiplicative_noise(self):
        truth, _ = self.make_spectrum()
        worst = 0.0
        for seed in range(100):
            _, trace = self.make_spectrum(sigma=0.05, seed=seed)
            fit = fit_lorentzian(trace)
            worst = max(worst, abs(fit.value("center") - truth["center"]) / truth["fwhm"])
        assert worst < 0.1

    def test_absorption_window_width(self, presets):
        # blue-pump absorption window: fit the inverted power response and
        # compare to the narrowed linewidth (the window deviates from an
        # ideal Lorentzian at the Gamma'/kappa level, hence the 10% bar)
        scene = presets["ppia"]
        om0 = scene["hf.omega0"]
        gamma_eff = scene["lf.gamma0"] * (1 - scene["drive.cooperativity"])
        assert gamma_eff == pytest.approx(TWO_PI * 10e3, rel=1e-12)
        freq = om0 / TWO_PI + np.linspace(-6, 6, 4001) * gamma_eff / TWO_PI
        pumped = np.abs(s11_pumped(TWO_PI * freq, om0, scene["hf.kappa_i"],
                                   scene["hf.kappa_e"], scene["lf.omega0"],
                                   scene["lf.gamma0"], scene["drive.g"],
                                   scene["drive.detuning"])) ** 2
        bare = np.abs(s11_bare(TWO_PI * freq, om0, scene["hf.kappa_i"],
                               scene["hf.kappa_e"])) ** 2
        fit = fit_lorentzian(SpectrumTrace(freq, bare - pumped))
        assert fit.value("fwhm") * TWO_PI == pytest.approx(gamma_eff, rel=0.10)

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        _, trace = self.make_spectrum()
        [(residual, x0)] = engine_calls(monkeypatch, fit_lorentzian, trace)
        offset, amp, center, fwhm = x0
        for sign in (1, -1):   # fwhm enters squared
            u = np.array([1.1 * offset, 0.9 * amp, center + 0.3 * fwhm, sign * 1.2 * fwhm])
            check_jacobian(residual, u, 1e-4 * np.array([amp, amp, fwhm, fwhm]))

    def test_no_peak_rejected(self):
        freq = np.linspace(1e6, 2e6, 64)
        with pytest.raises(DomainError, match="no peak visible"):
            fit_lorentzian(SpectrumTrace(freq, np.full(64, 3.0)))


class TestFitBackaction:
    G_TRUE = TWO_PI * 24.6e3
    K_TRUE = TWO_PI * 110e3

    def test_exact_recovery(self):
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        ba = backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red")
        fit = fit_backaction(d, ba.frequency_shift, ba.damping_shift)
        assert abs(fit.value("g") - self.G_TRUE) / self.G_TRUE < 1e-9
        assert abs(fit.value("kappa_eff") - self.K_TRUE) / self.K_TRUE < 1e-9

    def test_fitted_peak_is_closed_form(self):
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        ba = backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red")
        fit = fit_backaction(d, ba.frequency_shift, ba.damping_shift)
        g, k = fit.value("g"), fit.value("kappa_eff")
        peak = backaction_sideband(0.0, g, k, "red").damping_shift
        assert peak == pytest.approx(4 * g**2 / k, rel=1e-12)

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        ba = backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red")
        [(residual, x0)] = engine_calls(monkeypatch, fit_backaction, d,
                                        ba.frequency_shift, ba.damping_shift)
        for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):   # g and kappa enter as |.|
            u = x0 * np.array([1.1, 0.9]) * signs
            check_jacobian(residual, u, 1e-4 * np.abs(u))

    def test_all_zero_data_rejected(self):
        d = np.linspace(-1e5, 1e5, 51)
        with pytest.raises(DomainError, match="identically zero"):
            fit_backaction(d, np.zeros(51), np.zeros(51))

    def test_noisy_recovery(self):
        rng = make_rng(42, 0)
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        ba = backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red")
        scale = np.max(ba.damping_shift)
        fit = fit_backaction(d, ba.frequency_shift + 0.01 * scale * rng.standard_normal(201),
                             ba.damping_shift + 0.01 * scale * rng.standard_normal(201))
        assert fit.value("g") == pytest.approx(self.G_TRUE, rel=0.02)
        assert fit.value("kappa_eff") == pytest.approx(self.K_TRUE, rel=0.02)


class TestFitFluxArch:
    SPEC = SquidSpec(TWO_PI * 5.844e9, 0.982, 0.59, 742e-12)

    def test_exact_recovery_with_derived_junction(self):
        phi = np.linspace(-0.52, 0.52, 41)
        fit = fit_flux_arch(phi, squid_frequency(phi, self.SPEC),
                            total_inductance=742e-12)
        assert abs(fit.value("omega0") - TWO_PI * 5.844e9) / (TWO_PI * 5.844e9) < 1e-9
        assert abs(fit.value("dilution") - 0.982) / 0.982 < 1e-9
        assert abs(fit.value("gamma_l") - 0.59) / 0.59 < 1e-9
        assert fit.extras["junction_inductance"] == pytest.approx(27e-12, rel=0.03)
        assert fit.extras["critical_current"] == pytest.approx(12e-6, rel=0.03)

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        phi = np.linspace(-0.52, 0.52, 41)
        [(residual, x0)] = engine_calls(monkeypatch, fit_flux_arch, phi,
                                        squid_frequency(phi, self.SPEC))
        # at gamma_l = 1.3 the cosine is clamped for |phi| > 0.385, where the
        # model does not move with gamma_l
        assert np.any(np.cos(np.pi * 1.3 * phi) <= 1e-9)
        for gamma_l in (x0[2], 1.3):
            u = np.array([x0[0], x0[1], gamma_l])
            check_jacobian(residual, u, 1e-6 * u)

    def test_flat_arch_not_identifiable(self):
        phi = np.linspace(-0.5, 0.5, 21)
        with pytest.raises(DomainError, match="arch is flat"):
            fit_flux_arch(phi, np.full(21, TWO_PI * 5.844e9))

    def test_multiple_arches_rejected(self):
        inner = np.linspace(-0.3, 0.3, 13)
        phi = np.concatenate([inner, inner + 1.7])
        om = np.concatenate([squid_frequency(inner, self.SPEC)] * 2)
        with pytest.raises(DomainError, match="rises again"):
            fit_flux_arch(phi, om)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_flux_arch(np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.9, 0.8]))
