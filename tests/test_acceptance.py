"""Acceptance suite: one test per criterion 1-6, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here, not calibrated elsewhere.  Criterion 7, that the
module suites pass, is the tier-1 run itself, which runs each test once.
"""

import json
import math
import time

import numpy as np

from photonpressure.cli import main
from photonpressure.constants import hbar
from photonpressure.dynamics import (backaction_exact, backaction_sideband,
                                     normal_modes, s11_pumped)
from photonpressure.fitting import (BackgroundModel, fit_backaction,
                                    fit_flux_arch, fit_lorentzian,
                                    fit_resonance)
from photonpressure.noise import (DetectionChain, backaction_free,
                                  bose_occupation, extract_current_psd,
                                  hemt_noise_power_dbm,
                                  thermal_photons_from_peak)
from photonpressure.presets import preset
from photonpressure.squid import (flux_responsivity, single_photon_coupling,
                                  squid_frequency)
from photonpressure.synth import NoiseSpec, synth_psd

TWO_PI = 2 * math.pi
# largest usable flux bias of the measured device, in PHI_0
USABLE_BIAS = 0.546


def report(number, label, checks):
    """Print one line per criterion and fail the test on any red check."""
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    for name, ok, detail in checks:
        print(f"    [{'ok' if ok else 'XX'}] {name}: {detail}")
    assert not failed, f"criterion {number} failed: {[n for n, _ in failed]}"


def rel(value, target):
    return abs(value - target) / abs(target)


def test_criterion_1_circuit_derivations(tmp_path):
    start = time.time()
    # every value comes from `params` on the geometry preset, which holds
    # this criterion's inputs
    out = tmp_path / "geometry.json"
    assert main(["params", "--preset", "geometry", "--out", str(out)]) == 0
    p = json.loads(out.read_text())

    checks = []
    for name, value, target in [
        ("C_LF", p["lf.capacitance"], 620e-12),
        ("L_LF", p["lf.inductance"], 267e-12),
        ("Gamma_e", p["lf.external_rate"], TWO_PI * 14.5e3),
        ("C_IDC", p["hf.idc_capacitance"], 507e-15),
        ("C_HF", p["hf.capacitance"], 1.01e-12),
        ("L_HF", p["hf.inductance"], 742e-12),
        ("kappa_e", p["hf.external_rate"], TWO_PI * 43e3),
    ]:
        r = rel(value, target)
        checks.append((name, r <= 0.02, f"{value:.6g} vs {target:.6g} ({r:.2%})"))

    # The coupling chain is checked against its defining formulas, evaluated
    # on this criterion's inputs.  The paper's quotes cannot all be met:
    # 14 pH and 1.2 are the formula values to two figures, but 21 nA breaks
    # 2*L*I^2 = hbar*omega (ratio 0.913 at L = 268.246 pH, omega = 2pi*391 MHz),
    # and 145 uPHI_0 is 14.387 pH * 21 nA.  Each quote and its offset is printed;
    # where the quote is the formula value to two figures, that is checked too.
    for name, value, reference, quote, two_figures in [
        # sqrt(hbar * 2pi*391 MHz / (2 * 268.246 pH)) = 21.975 nA
        ("I_zpf", p["lf.zero_point_current"], 21.975e-9, 21e-9, False),
        # 3 * (mu0/2pi) * 10 um * ln(11 um / 1 um) = 14.387 pH
        ("M", p["coupling.mutual_inductance"], 14.387e-12, 14e-12, True),
        # 14.387 pH * 21.975 nA / PHI_0 = 152.90 uPHI_0
        ("Phi_zpf", p["coupling.zero_point_flux_phi0"], 152.90e-6, 145e-6, False),
        # 2 * 120 pH * 10 uA / PHI_0 = 1.1606
        ("beta_L", p["squid.screening"], 1.1606, 1.2, True),
    ]:
        r = rel(value, reference)
        ok = r <= 1e-3 and (not two_figures or float(f"{value:.1e}") == quote)
        quoted = f"paper quotes {quote:.6g} ({rel(value, quote):.2%} off"
        quoted += ", equal at 2 figures)" if two_figures else ")"
        checks.append((name, ok, f"{value:.6g} vs {reference:.6g} ({r:.1e}); {quoted}"))
    elapsed = time.time() - start
    checks.append(("runtime", elapsed < 1.0, f"{elapsed:.2f} s < 1 s"))
    report(1, "circuit derivations", checks)


def test_criterion_2_flux_arch_chain():
    start = time.time()
    truth = (TWO_PI * 5.844e9, 0.982, 0.59)
    arch = preset("flux_arch")
    phi = np.linspace(-USABLE_BIAS, USABLE_BIAS, 61)
    fit = fit_flux_arch(phi, squid_frequency(phi, *truth), total_inductance=742e-12)

    resp = np.abs(flux_responsivity(phi, *truth))
    g0 = single_photon_coupling(phi, *truth, arch["coupling.zero_point_flux_phi0"])
    elapsed = time.time() - start

    checks = [
        ("omega0(0)", rel(fit.value("omega0"), TWO_PI * 5.844e9) <= 1e-3,
         f"{fit.value('omega0'):.8g} ({rel(fit.value('omega0'), TWO_PI * 5.844e9):.2e})"),
        ("dilution", rel(fit.value("dilution"), 0.982) <= 1e-3,
         f"{fit.value('dilution'):.6f}"),
        ("widening", rel(fit.value("gamma_l"), 0.59) <= 1e-3,
         f"{fit.value('gamma_l'):.6f}"),
        ("L_J0", rel(fit.extras["junction_inductance"], 27e-12) <= 0.03,
         f"{fit.extras['junction_inductance'] * 1e12:.2f} pH vs 27 pH"),
        ("I_c", rel(fit.extras["critical_current"], 12e-6) <= 0.03,
         f"{fit.extras['critical_current'] * 1e6:.2f} uA vs 12 uA"),
        ("peak responsivity", rel(resp.max(), TWO_PI * 300e6) <= 0.05,
         f"{resp.max() / TWO_PI / 1e6:.1f} MHz/PHI_0 vs 300"),
        ("peak g0", rel(g0.max(), TWO_PI * 40e3) <= 0.05,
         f"{g0.max() / TWO_PI / 1e3:.2f} kHz vs 40"),
        ("runtime", elapsed < 5.0, f"{elapsed:.2f} s < 5 s"),
    ]
    report(2, "flux-arch chain", checks)


def test_criterion_3_backaction():
    start = time.time()
    scene = preset("backaction")
    g, kappa_eff = scene["drive.g"], scene["drive.kappa_eff"]

    _, (peak,) = backaction_sideband(np.array([0.0]), g, kappa_eff, "red")

    # exact vs sideband approximation, normalized to the curve peaks
    kappa, lf = 1.0, 1e3
    g_small = 0.01
    d = np.linspace(-5 * kappa, 5 * kappa, 2001)
    exact_shift, exact_damping = backaction_exact(-lf + d, g_small, kappa, lf)
    approx_shift, approx_damping = backaction_sideband(d, g_small, kappa, "red")
    shift_err = np.max(np.abs(exact_shift - approx_shift)) / (g_small**2 / kappa)
    damp_err = np.max(np.abs(exact_damping - approx_damping)) / (4 * g_small**2 / kappa)

    d_fit = np.linspace(-3 * kappa_eff, 3 * kappa_eff, 301)
    fit = fit_backaction(d_fit, *backaction_sideband(d_fit, g, kappa_eff, "red"))
    elapsed = time.time() - start

    checks = [
        ("peak damping", abs(peak - TWO_PI * 22e3) <= 1e-6 * TWO_PI * 22e3,
         f"{peak / TWO_PI:.6f} Hz vs 22 kHz (by construction)"),
        ("exact vs sideband shift", shift_err <= 0.01, f"{shift_err:.2e} <= 1%"),
        ("exact vs sideband damping", damp_err <= 0.01, f"{damp_err:.2e} <= 1%"),
        ("fit g", rel(fit.value("g"), g) <= 1e-6, f"{rel(fit.value('g'), g):.2e}"),
        ("fit kappa_eff", rel(fit.value("kappa_eff"), kappa_eff) <= 1e-6,
         f"{rel(fit.value('kappa_eff'), kappa_eff):.2e}"),
        ("runtime", elapsed < 5.0, f"{elapsed:.2f} s < 5 s"),
    ]
    report(3, "backaction", checks)


def test_criterion_4_strong_coupling():
    start = time.time()
    scene = preset("strong_coupling_D")
    f0 = scene["hf.omega0"] / TWO_PI
    grid = np.linspace(f0 - 2e6, f0 + 2e6, 2001)
    step = grid[1] - grid[0]
    mag = np.abs(s11_pumped(TWO_PI * grid, scene["hf.omega0"], scene["hf.kappa_i"],
                            scene["hf.kappa_e"], scene["lf.omega0"],
                            scene["lf.gamma0"], scene["drive.g"],
                            scene["drive.detuning"]))

    def refined_min(i):
        # parabolic refinement around the grid minimum
        if 0 < i < mag.size - 1:
            a, b, c = mag[i - 1], mag[i], mag[i + 1]
            shift = 0.5 * (a - c) / (a - 2 * b + c)
            return grid[i] + shift * step
        return grid[i]

    i = int(np.argmin(mag))
    masked = np.where(np.abs(grid - grid[i]) > scene["drive.g"] / TWO_PI, mag, np.inf)
    j = int(np.argmin(masked))
    separation = abs(refined_min(j) - refined_min(i))

    rng = np.random.default_rng(17)
    worst_trace = 0.0
    for _ in range(10_000):
        g = 10 ** rng.uniform(0, 7)
        kappa = 10 ** rng.uniform(1, 7)
        gamma0 = 10 ** rng.uniform(0, 6)
        lf = 10 ** rng.uniform(6, 10)
        upper, lower = normal_modes(np.array([g]), kappa, gamma0, lf)
        total = upper[0] + lower[0]
        expected = 2 * lf - 0.5j * (kappa + gamma0)
        worst_trace = max(worst_trace, abs(total - expected) / abs(expected))

    kappa, gamma0, lf = TWO_PI * 214.4e3, TWO_PI * 22e3, TWO_PI * 391e6
    g_th = (kappa - gamma0) / 4
    upper, lower = normal_modes(g_th * np.array([1 - 1e-12, 1.0, 1 + 1e-12]),
                                kappa, gamma0, lf)
    below, at, above = upper.real - lower.real
    switch_ok = below == 0.0 and at == 0.0 and above > 0.0
    elapsed = time.time() - start

    checks = [
        ("dip separation", abs(separation - 500e3) <= step,
         f"{separation / 1e3:.2f} kHz vs 500 kHz within one step ({step / 1e3:.1f} kHz)"),
        ("trace invariance", worst_trace <= 1e-9, f"worst {worst_trace:.2e} over 1e4 draws"),
        ("threshold switch", switch_ok,
         f"splitting {below}, {at}, {above:.3g}"),
        ("runtime", elapsed < 10.0, f"{elapsed:.2f} s < 10 s"),
    ]
    report(4, "strong coupling", checks)


def _noise_pipeline(scene, detection, n_th_true, seed, sigma):
    coop = scene["drive.cooperativity"]
    n_lf_true = (n_th_true + 1) / (1 - coop) - 1
    cfg = dict(scene)
    cfg["thermal.n_lf"] = n_lf_true
    f_peak = (cfg["hf.omega0"] + cfg["drive.detuning"] - cfg["lf.omega0"]) / TWO_PI
    grid = f_peak + np.linspace(-1.5e5, 1.5e5, 2001)
    noise = None if sigma == 0 else NoiseSpec("multiplicative-gaussian", sigma, seed=seed)
    trace = synth_psd(cfg, grid, detection, noise=noise)

    kappa = cfg["hf.kappa_i"] + cfg["hf.kappa_e"]
    i_zpf = cfg["coupling.zero_point_current"]
    if sigma == 0:
        background = detection.total_gain * hbar * cfg["hf.omega0"] \
            * (0.5 + detection.effective_added_photons)
        current = extract_current_psd(trace, background,
                                      detection.effective_added_photons, kappa,
                                      cfg["hf.kappa_e"], coop, cfg["lf.gamma0"], i_zpf)
        gamma_eff = cfg["lf.gamma0"] * (1 - coop)
        n_lf = thermal_photons_from_peak(current.values.max(), cfg["lf.gamma0"],
                                         gamma_eff, i_zpf)
    else:
        # the effective linewidth is an input from the response measurement
        # (Gamma0' = Gamma0 (1 - C)); the spectrum only supplies the
        # background level and the peak amplitude
        v_fit = fit_lorentzian(trace)
        background = v_fit.value("offset")
        current = extract_current_psd(trace, background,
                                      detection.effective_added_photons, kappa,
                                      cfg["hf.kappa_e"], coop, cfg["lf.gamma0"], i_zpf)
        i_fit = fit_lorentzian(current)
        gamma_eff = cfg["lf.gamma0"] * (1 - coop)
        n_lf = thermal_photons_from_peak(i_fit.value("offset") + i_fit.value("amplitude"),
                                         cfg["lf.gamma0"], gamma_eff, i_zpf)
    return n_lf_true, n_lf, backaction_free(n_lf, coop)


def test_criterion_5_noise_chain():
    start = time.time()
    hemt = hemt_noise_power_dbm(5.5, 200.0)
    scene = preset("ppia")
    detection = DetectionChain(5.5, 20.0, 0.7, 1e7, 200.0, -61.0)
    n_add = detection.effective_added_photons

    n_lf_true, n_lf_rec, _ = _noise_pipeline(scene, detection, 4.0, 0, 0.0)
    clean_err = rel(n_lf_rec, n_lf_true)

    worst_nth = 0.0
    for seed in range(100):
        _, _, n_th = _noise_pipeline(scene, detection, 4.0, seed, 0.03)
        worst_nth = max(worst_nth, rel(n_th, 4.0))

    # temperature sweep: monotone peaks; recovered n_th tracks the Bose
    # occupation within 20% at T >= 100 mK
    peaks, bose_checks = [], []
    for t_bath in (0.015, 0.05, 0.1, 0.15, 0.22):
        n_th_true = bose_occupation(scene["lf.omega0"], t_bath) + 3.6
        cfg = dict(scene)
        coop = cfg["drive.cooperativity"]
        cfg["thermal.n_lf"] = (n_th_true + 1) / (1 - coop) - 1
        f_peak = (cfg["hf.omega0"] + cfg["drive.detuning"] - cfg["lf.omega0"]) / TWO_PI
        grid = f_peak + np.linspace(-1.5e5, 1.5e5, 1001)
        trace = synth_psd(cfg, grid, detection,
                          noise=NoiseSpec("multiplicative-gaussian", 0.03, seed=1))
        peaks.append(trace.values.max())
        if t_bath >= 0.1:
            _, _, n_th_rec = _noise_pipeline(scene, detection, n_th_true, 1, 0.03)
            bose_checks.append(rel(n_th_rec, n_th_true))
    elapsed = time.time() - start

    checks = [
        ("HEMT noise floor", abs(hemt - (-168.2)) <= 0.05, f"{hemt:.3f} dBm"),
        ("added photons", rel(n_add, 28.8) <= 0.01, f"{n_add:.4f} vs 28.8"),
        ("clean pipeline", clean_err <= 1e-6, f"n_LF err {clean_err:.2e}"),
        ("noisy n_th", worst_nth <= 0.10, f"worst {worst_nth:.2%} over 100 seeds"),
        ("temperature monotone", bool(np.all(np.diff(peaks) > 0)),
         " -> ".join(f"{p:.3e}" for p in peaks)),
        ("Bose trend", max(bose_checks) <= 0.20,
         f"worst {max(bose_checks):.2%} at T >= 100 mK"),
        ("runtime", elapsed < 30.0, f"{elapsed:.2f} s < 30 s"),
    ]
    report(5, "noise chain", checks)


def test_criterion_6_fitting_robustness():
    start = time.time()
    sets = {
        "lf": dict(omega0=TWO_PI * 391.18e6, kappa_i=TWO_PI * 7.4e3,
                   kappa_e=TWO_PI * 13.8e3),
        "hf": dict(omega0=TWO_PI * 5.844e9, kappa_i=TWO_PI * 163e3,
                   kappa_e=TWO_PI * 28e3),
    }
    checks = []
    for label, par in sets.items():
        kappa = par["kappa_i"] + par["kappa_e"]
        f0 = par["omega0"] / TWO_PI
        span = 8 * kappa / TWO_PI
        freq = np.linspace(f0 - span / 2, f0 + span / 2, 1201)
        w_ref = math.pi * (freq[0] + freq[-1])
        bg = BackgroundModel(0.93, 0.04 / (TWO_PI * span), 0.4,
                             1.1 / (TWO_PI * span), reference_frequency=w_ref)
        from photonpressure.dynamics import s11_bare
        clean = s11_bare(TWO_PI * freq, par["omega0"], par["kappa_i"], par["kappa_e"])
        clean = (1.0 - (1.0 - clean) * np.exp(0.1j)) * bg.evaluate(TWO_PI * freq)

        errors = {"kappa_i": [], "kappa_e": []}
        iterations = []
        from photonpressure.synth import make_rng
        from photonpressure.traces import ComplexTrace
        for seed in range(100):
            rng = make_rng(seed, 0)
            noisy = clean + 0.01 * (rng.standard_normal(freq.size)
                                    + 1j * rng.standard_normal(freq.size))
            fit = fit_resonance(ComplexTrace(freq, noisy))
            iterations.append(fit.iterations)
            for name in errors:
                errors[name].append((fit.value(name) - par[name]) / par[name])
        for name, errs in errors.items():
            mean_err = abs(float(np.mean(errs)))
            worst = float(np.max(np.abs(errs)))
            checks.append((f"{label} {name} mean", mean_err <= 1e-3,
                           f"{mean_err:.2e} <= 0.1%"))
            checks.append((f"{label} {name} seed-worst", worst <= 0.02,
                           f"{worst:.2%} <= 2%"))
        # the one joint fit takes at most 7 Gauss-Newton iterations over
        # these seeds; 10 leaves room for rounding on other platforms
        checks.append((f"{label} GN iterations per fit", max(iterations) <= 10,
                       f"max {max(iterations)} <= 10"))

    # background idempotence on a corrected trace
    freq = np.linspace(5.8432e9, 5.8448e9, 1201)
    par = sets["hf"]
    span_w = TWO_PI * (freq[-1] - freq[0])
    bg = BackgroundModel(0.93, 0.02 / span_w, 0.4, 1.0 / span_w,
                         reference_frequency=math.pi * (freq[0] + freq[-1]))
    from photonpressure.dynamics import s11_bare
    from photonpressure.traces import ComplexTrace
    vals = s11_bare(TWO_PI * freq, par["omega0"], par["kappa_i"], par["kappa_e"]) \
        * bg.evaluate(TWO_PI * freq)
    corrected = fit_resonance(ComplexTrace(freq, vals)).extras["corrected_trace"]
    second = fit_resonance(corrected).extras["background"]
    idem = max(abs(second.amplitude_offset - 1.0),
               abs(second.amplitude_slope) * span_w,
               abs(second.phase_offset),
               abs(second.phase_slope) * span_w,
               abs(second.circle_rotation))
    elapsed = time.time() - start
    checks.append(("background idempotence", idem <= 1e-6, f"{idem:.2e} <= 1e-6"))
    checks.append(("runtime", elapsed < 60.0, f"{elapsed:.2f} s < 60 s"))
    report(6, "fitting robustness", checks)
