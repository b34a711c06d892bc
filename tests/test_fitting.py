import math

import numpy as np
import pytest

from photonpressure.dynamics import (backaction_sideband, s11_bare,
                                     s11_pumped)
from photonpressure.errors import DomainError
from photonpressure.fitting import (BackgroundModel, fit_backaction,
                                    fit_flux_arch, fit_lorentzian,
                                    fit_resonance)
from photonpressure.synth import NoiseSpec, make_rng, synth_s11
from photonpressure.traces import ComplexTrace, SpectrumTrace

from oracles import squid_frequency

TWO_PI = 2 * math.pi

HF_SET = dict(omega0=TWO_PI * 5.844e9, kappa_i=TWO_PI * 163e3, kappa_e=TWO_PI * 28e3)
LF_SET = dict(omega0=TWO_PI * 391.18e6, kappa_i=TWO_PI * 7.4e3, kappa_e=TWO_PI * 13.8e3)


def make_bare_trace(par, n=2001, halfwidths=4.0, theta=0.0, background=None,
                    sigma=0.0, seed=0, shift=0.0):
    # ``shift`` moves the grid's center off omega0 by that many linewidths
    kappa = par["kappa_i"] + par["kappa_e"]
    f0 = (par["omega0"] + shift * kappa) / TWO_PI
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


def lstsq_bare_seed(omega, s, center, width):
    """``fitting._bare_seed`` with its two-unknown Levy problem solved by
    :func:`numpy.linalg.lstsq`: the reference for its closed form."""
    d = s - 1.0
    (u, c), *_ = np.linalg.lstsq(np.column_stack([d, np.ones_like(d)]),
                                 -2j * (omega - center) * d, rcond=None)
    kappa, ke = u.real, 0.5 * abs(c)
    if kappa > 0 and 0 < ke < kappa:
        return np.array([center - 0.5 * u.imag, kappa - ke, ke, np.angle(c)])
    return np.array([center, 0.5 * width, 0.5 * width, 0.0])


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
        assert fit.value("background.circle_rotation") == pytest.approx(0.15, abs=1e-6)
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
        params = ("omega0", "kappa_i", "kappa_e", "background.circle_rotation",
                  "background.amplitude_offset", "background.amplitude_slope",
                  "background.phase_offset", "background.phase_slope")
        assert set(fit.as_dict()) == {*params, *(f"{n}_err" for n in params),
                                      "residual_norm", "iterations", "evaluations", "message",
                                      "converged", "kappa", "background.reference_frequency"}

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
        # the seed's background refresh evaluates the model once
        assert len(calls) == fit.evaluations + 1

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

    @pytest.mark.parametrize("par", [HF_SET, LF_SET], ids=["hf", "lf"])
    def test_three_iterations_on_criterion_6_traces(self, par):
        # the closed-form seed and its background refresh start the fit so
        # near its optimum that three Gauss-Newton steps reach it
        for seed in range(10):
            fit = fit_resonance(criterion_6_trace(par, seed))
            assert fit.converged and fit.iterations <= 3, (seed, fit.iterations)

    @pytest.mark.parametrize("par", [HF_SET, LF_SET], ids=["hf", "lf"])
    def test_closed_form_seed_matches_lstsq(self, monkeypatch, par):
        # both seed solves of each criterion-6 fit, on the inputs the fit
        # hands them: the resonance seed and the one after the refresh
        from photonpressure import fitting

        original = fitting._bare_seed
        inputs = []
        monkeypatch.setattr(fitting, "_bare_seed",
                            lambda *args: inputs.append(args) or original(*args))
        for seed in range(10):
            fit_resonance(criterion_6_trace(par, seed))
        assert len(inputs) == 20
        for args in inputs:
            closed, ref = original(*args), lstsq_bare_seed(*args)
            assert ref[3] != 0.0  # not the fallback
            assert abs(closed[0] - ref[0]) <= 1e-12 * (ref[1] + ref[2])
            np.testing.assert_allclose(closed[1:], ref[1:], rtol=1e-12)

    @pytest.mark.parametrize("kappa, ke", [(-1.0, 0.3), (1.0, 2.0)],
                             ids=["kappa-negative", "ke-above-kappa"])
    def test_closed_form_seed_falls_back_like_lstsq(self, kappa, ke):
        # a response the rates cannot make seeds at the dip's center with
        # the width shared equally by the two rates
        from photonpressure.fitting import _bare_seed

        omega = np.linspace(-4.0, 4.0, 101)
        s = 1.0 - 2.0 * ke / (kappa + 2j * (omega - 0.2))
        np.testing.assert_array_equal(_bare_seed(omega, s, 0.0, 1.5), [0.0, 0.75, 0.75, 0.0])
        np.testing.assert_array_equal(lstsq_bare_seed(omega, s, 0.0, 1.5),
                                      [0.0, 0.75, 0.75, 0.0])

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
            phase = fit.value("background.phase_offset")
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
        with pytest.raises(DomainError, match="points are off-resonant"):
            fit_resonance(trace)

    def test_too_few_points(self):
        freq = np.linspace(5.84e9, 5.85e9, 8)
        with pytest.raises(DomainError):
            fit_resonance(ComplexTrace(freq, np.ones(8, complex)))

    @pytest.mark.parametrize("model, fixed", [
        ("bare", None), ("pumped", {"kappa_e": 1e5, "gamma0": 1e3, "detuning": -2e9})],
        ids=["bare", "pumped"])
    def test_flat_trace_is_refused(self, model, fixed):
        # kappa_e = 0 leaves |S11| = 1 everywhere: no dip to fit
        trace = make_bare_trace(dict(HF_SET, kappa_e=0.0), n=1201)
        assert np.all(trace.values == 1.0)
        with pytest.raises(DomainError, match="no dip"):
            fit_resonance(trace, model=model, pumped=fixed)


# background and rotation axes of the sweep: amplitude slope (relative, per
# span), phase offset at 0 and just inside +-pi, phase slope (rad per span)
# and circle rotation theta
SWEEP_BACKGROUNDS = [(a1, b0, b1, theta)
                     for a1 in (-0.1, 0.1)
                     for b0 in (0.0, math.pi - 1e-3, -(math.pi - 1e-3))
                     for b1 in (-3.0, 0.0, 3.0)
                     for theta in (-0.5, 0.0, 0.5)]


# the dip 1 linewidth from the low and from the high end of the trace, so
# the baseline of a noiseless trace is one run, on two backgrounds of the
# grid with the full phase slope and their phase offset near -pi and +pi:
# unrotated, and rotated toward the near end (+0.5 at the low end, -0.5 at
# the high end), where the initial width estimate of a lopsided
# overcoupled dip reads ~1.85 linewidths
SWEEP_EDGES = [(SWEEP_BACKGROUNDS.index((-0.1, -(math.pi - 1e-3), -3.0, theta)), -1)
               for theta in (0.0, 0.5)]
SWEEP_EDGES += [(SWEEP_BACKGROUNDS.index((0.1, math.pi - 1e-3, 3.0, theta)), 1)
                for theta in (0.0, -0.5)]


def sweep_trace(ratio, sigma, case, edge=0):
    """Bare hf trace with kappa_e/kappa_i = ``ratio``, the background and
    rotation of ``SWEEP_BACKGROUNDS[case]`` and noise ``sigma`` seeded by
    ``case``; ``edge`` -1 or 1 puts the dip 1 linewidth from the low or
    the high end.  Returns the true parameters and the trace."""
    kappa = HF_SET["kappa_i"] + HF_SET["kappa_e"]
    par = dict(omega0=HF_SET["omega0"], kappa_i=kappa / (1.0 + ratio),
               kappa_e=kappa * ratio / (1.0 + ratio))
    a1, b0, b1, theta = SWEEP_BACKGROUNDS[case]
    span = 8.0 * kappa  # make_bare_trace's default 4 halfwidths, in rad/s
    bg = BackgroundModel(0.93, a1 * 0.93 / span, b0, b1 / span,
                         reference_frequency=par["omega0"])
    return par, make_bare_trace(par, n=1201, theta=theta, background=bg,
                                sigma=sigma, seed=case, shift=-3.0 * edge)


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.02])
@pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
def test_background_sweep_reaches_truth(ratio, sigma):
    # every background of the grid and the two edge dips: the fit converges,
    # noiseless traces give the truth to 1e-8 (omega0 in linewidths) and
    # noisy ones within 5 of the fit's own uncertainties
    for case, edge in [(c, 0) for c in range(len(SWEEP_BACKGROUNDS))] + SWEEP_EDGES:
        par, trace = sweep_trace(ratio, sigma, case, edge)
        fit = fit_resonance(trace)
        assert fit.converged, (case, edge)
        kappa = par["kappa_i"] + par["kappa_e"]
        for name in ("omega0", "kappa_i", "kappa_e"):
            err = abs(fit.value(name) - par[name])
            if sigma:
                assert err <= 5.0 * fit.as_dict()[name + "_err"], (case, edge, name)
            else:
                scale = kappa if name == "omega0" else par[name]
                assert err <= 1e-8 * scale, (case, edge, name, err / scale)


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
        # the seed's background refresh evaluates the model once
        assert len(calls) == fit.evaluations + 1

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

    def test_lf_frequency_enters_as_magnitude(self, presets):
        # seeded at -lf_frequency, the fit finds the mirror of the optimum
        # and reports it positive, as it reports the rates
        scene = presets["strong_coupling_B"]
        trace, fixed = make_pumped_trace(scene)
        fit = fit_resonance(trace, model="pumped",
                            pumped={**fixed, "lf_frequency": -scene["lf.omega0"]})
        assert fit.converged
        assert fit.value("lf_frequency") == pytest.approx(scene["lf.omega0"], rel=1e-6)
        assert fit.value("g") == pytest.approx(scene["drive.g"], rel=1e-3)

    def test_three_iterations_on_scene_b(self, presets):
        # the benchmark's pumped trace: scene B on 2401 points over +-1.2 MHz,
        # noise sigma 5e-4, fitted from the fixed rates alone
        scene = presets["strong_coupling_B"]
        freq = scene["hf.omega0"] / TWO_PI + np.linspace(-1.2e6, 1.2e6, 2401)
        fixed = {"kappa_e": scene["hf.kappa_e"], "gamma0": scene["lf.gamma0"],
                 "detuning": scene["drive.detuning"]}
        for seed in range(10):
            trace = synth_s11("pumped", scene, freq, background=linear_background(freq),
                              noise=NoiseSpec("additive-complex-gaussian", 5e-4, seed=seed))
            fit = fit_resonance(trace, model="pumped", pumped=fixed)
            assert fit.converged and fit.iterations <= 3, (seed, fit.iterations)

    @pytest.mark.parametrize("g", [73135.11901145386, 149418.98964380432],
                             ids=["11.6kHz", "23.8kHz"])
    def test_weak_coupling_fit_is_sound_or_not_converged(self, presets, g):
        # scene A below the strong-coupling threshold, with g from
        # sqrt(n_c) g0(phi) at flux bias 0.05 and 0.10: a converged fit holds
        # lf_frequency within 1e-3 and reports finite, non-zero uncertainties
        scene = dict(presets["strong_coupling_A"], **{"drive.g": g})
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
                lf_err = abs(fit.value("lf_frequency") - scene["lf.omega0"]) / scene["lf.omega0"]
                assert lf_err <= 1e-3, (seed, fit.value("lf_frequency"))
                assert np.all(np.isfinite(fit.uncertainties)), seed
                assert np.all(fit.uncertainties > 0), seed

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
        fit = fit_backaction(d, *backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red"))
        assert abs(fit.value("g") - self.G_TRUE) / self.G_TRUE < 1e-9
        assert abs(fit.value("kappa_eff") - self.K_TRUE) / self.K_TRUE < 1e-9

    def test_fitted_peak_is_closed_form(self):
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        fit = fit_backaction(d, *backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red"))
        g, k = fit.value("g"), fit.value("kappa_eff")
        _, (peak,) = backaction_sideband(np.array([0.0]), g, k, "red")
        assert peak == pytest.approx(4 * g**2 / k, rel=1e-12)

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        d = np.linspace(-3 * self.K_TRUE, 3 * self.K_TRUE, 201)
        [(residual, x0)] = engine_calls(monkeypatch, fit_backaction, d,
                                        *backaction_sideband(d, self.G_TRUE, self.K_TRUE,
                                                             "red"))
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
        shift, damping = backaction_sideband(d, self.G_TRUE, self.K_TRUE, "red")
        scale = np.max(damping)
        fit = fit_backaction(d, shift + 0.01 * scale * rng.standard_normal(201),
                             damping + 0.01 * scale * rng.standard_normal(201))
        assert fit.value("g") == pytest.approx(self.G_TRUE, rel=0.02)
        assert fit.value("kappa_eff") == pytest.approx(self.K_TRUE, rel=0.02)


class TestFitFluxArch:
    ARCH = (TWO_PI * 5.844e9, 0.982, 0.59)

    def test_exact_recovery_with_derived_junction(self):
        phi = np.linspace(-0.52, 0.52, 41)
        fit = fit_flux_arch(phi, squid_frequency(phi, *self.ARCH),
                            total_inductance=742e-12)
        assert abs(fit.value("omega0") - TWO_PI * 5.844e9) / (TWO_PI * 5.844e9) < 1e-9
        assert abs(fit.value("dilution") - 0.982) / 0.982 < 1e-9
        assert abs(fit.value("gamma_l") - 0.59) / 0.59 < 1e-9
        assert fit.extras["junction_inductance"] == pytest.approx(27e-12, rel=0.03)
        assert fit.extras["critical_current"] == pytest.approx(12e-6, rel=0.03)

    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch):
        phi = np.linspace(-0.52, 0.52, 41)
        [(residual, x0)] = engine_calls(monkeypatch, fit_flux_arch, phi,
                                        squid_frequency(phi, *self.ARCH))
        # at gamma_l = 1.3 the cosine is clamped for |phi| > 0.385, where the
        # model does not move with gamma_l
        assert np.any(np.cos(np.pi * 1.3 * phi) <= 1e-9)
        for gamma_l in (x0[2], 1.3):
            u = np.array([x0[0], x0[1], gamma_l])
            check_jacobian(residual, u, 1e-6 * u)

    def test_nonpositive_widening_refused(self, monkeypatch):
        # cos is even in gamma_l, so an engine result with -gamma_l fits the
        # points as well; it is refused with or without a total inductance
        from photonpressure import fitting

        original = fitting.least_squares

        def mirrored(residual, x0, **engine_kwargs):
            fit = original(residual, x0, **engine_kwargs)
            fit.params[2] *= -1.0
            return fit

        monkeypatch.setattr(fitting, "least_squares", mirrored)
        phi = np.linspace(-0.52, 0.52, 41)
        with pytest.raises(DomainError, match="must be positive"):
            fit_flux_arch(phi, squid_frequency(phi, *self.ARCH))

    def test_flat_arch_not_identifiable(self):
        phi = np.linspace(-0.5, 0.5, 21)
        with pytest.raises(DomainError, match="arch is flat"):
            fit_flux_arch(phi, np.full(21, TWO_PI * 5.844e9))

    def test_multiple_arches_rejected(self):
        inner = np.linspace(-0.3, 0.3, 13)
        phi = np.concatenate([inner, inner + 1.7])
        om = np.concatenate([squid_frequency(inner, *self.ARCH)] * 2)
        with pytest.raises(DomainError, match="rises again"):
            fit_flux_arch(phi, om)

    def test_noisy_single_arch_accepted(self):
        # the criterion-2 grid under 2e-4 multiplicative noise: a step against
        # the arch's direction larger than 5% of its span is noise, not a
        # second arch (the step check refused 58 of these 100)
        phi = np.linspace(-0.546, 0.546, 61)
        om = squid_frequency(phi, *self.ARCH)
        truth = np.array([TWO_PI * 5.844e9, 0.982, 0.59])
        for seed in range(100):
            noise = 2e-4 * np.random.default_rng(seed).standard_normal(phi.size)
            fit = fit_flux_arch(phi, om * (1.0 + noise))
            assert fit.converged, seed
            # the largest of these 300 pulls is 3.95
            assert np.all(np.abs(fit.params - truth) <= 5.0 * fit.uncertainties), seed

    @pytest.mark.parametrize("shift", [1.7, -1.7], ids=["second-right", "second-left"])
    def test_noisy_multiple_arches_rejected(self, shift):
        inner = np.linspace(-0.3, 0.3, 13)
        phi = np.concatenate([inner, inner + shift])
        om = np.concatenate([squid_frequency(inner, *self.ARCH)] * 2)
        for seed in range(100):
            noise = 1e-4 * np.random.default_rng(seed).standard_normal(phi.size)
            with pytest.raises(DomainError, match="rises again"):
                fit_flux_arch(phi, om * (1.0 + noise))

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_flux_arch(np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.9, 0.8]))
