"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from radialma import (
    ConfigurationError,
    EquationKind,
    KahlerModel,
    PotentialSequence,
    RadialPotential,
    SolveConfig,
    build_dirac_rhs,
    check_lower_bound,
    constant_rhs,
    continuity_in_t,
    destabilizes,
    germ_integral,
    line_tangent,
    magnification_experiment,
    magnifying,
    neutral,
    newton_solve,
    normalized_slope,
    reducing,
    stalk_from_sequence,
    tangent_on_line,
)
from radialma.solver import _first_integral_map, residual_from_perturbation

from conftest import gaussian_bump
from oracles import (bt_compare, dirac_density, disc_mass_quad, ricci_potential,
                     second_derivative)
from test_geometry import resolvable_curvature


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_fixed_point_suite():
    t0 = time.monotonic()
    worst_iters, worst_sup = 0, 0.0
    for n, d in ((1, 2.0), (2, 3.0)):
        m = KahlerModel(n, d)
        rhs = constant_rhs(m)
        bump = gaussian_bump(m.grid, 0.3)
        for kind in ("reducing", "neutral", "magnifying"):
            for t in (0.0, 0.25, 0.5, 0.9):
                tt = 0.0 if kind == "neutral" else t
                cfg = SolveConfig(newton_tol=1e-13, max_iters=50)
                res = newton_solve(m, rhs, EquationKind(kind, tt), cfg, bump)
                assert res.converged, (n, kind, t, res.message)
                assert res.iterations <= 25, (n, kind, t, res.iterations)
                sup = float(np.max(np.abs(res.phi)))
                assert sup <= 1e-9, (n, kind, t, sup)
                worst_iters = max(worst_iters, res.iterations)
                worst_sup = max(worst_sup, sup)
    elapsed = time.monotonic() - t0
    assert elapsed <= 5.0
    report(1, f"fixed points: worst iters {worst_iters}, worst sup|phi| "
              f"{worst_sup:.2e}, {elapsed:.2f}s")


def test_criterion_02_neutrality(model_n1):
    rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
    res = newton_solve(model_n1, rhs, neutral())
    assert res.converged
    nu = res.diagnostics.lelong.value
    assert abs(nu - 1.0) <= 0.02
    report(2, f"neutral pole reading nu = {nu:.4f} (fed 1.0), "
              f"residual {res.residual_norm:.2e}")


def test_criterion_03_singularity_reduction(model_n1):
    rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
    base = newton_solve(model_n1, rhs, neutral())
    trace, res = continuity_in_t(model_n1, rhs, reducing(0.5), 0.5)
    assert trace.verdict == "reached_target"
    nu_neutral = base.diagnostics.lelong.value
    nu_reduced = res.diagnostics.lelong.value
    assert nu_reduced <= 0.95 * nu_neutral
    report(3, f"reducing at t=0.5: nu {nu_reduced:.4f} vs neutral {nu_neutral:.4f}")


def test_criterion_04_magnification_dichotomy(model_n1):
    t0 = time.monotonic()
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    with pytest.warns(UserWarning, match="curvature margin"):
        rep = magnification_experiment(model_n1, 1.8, 0.2, eps_list)
    assert rep.verdict in ("reached_target", "barrier", "average_blowup")
    if rep.verdict == "barrier":
        assert any(not r.converged for r in rep.rows)
        report(4, "barrier verdict with recorded failure")
        return
    avgs = [r.record.diagnostics.avg_phi for r in rep.rows]
    assert all(b > a for a, b in zip(avgs, avgs[1:])), avgs
    for r in rep.rows:
        assert r.nu_measured >= r.nu_neutral - 1e-12, r
        assert r.nu_measured >= r.nu_bootstrap * (1.0 - 0.02), r
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    report(4, f"verdict {rep.verdict}; avg_phi {avgs[0]:.2f} -> {avgs[-1]:.2f}; "
              f"nu {rep.rows[0].nu_measured:.3f} -> {rep.rows[-1].nu_measured:.3f}; "
              f"{elapsed:.2f}s")


def test_criterion_05_comparison_suite():
    from test_comparison import comparison_pair
    rng = np.random.default_rng(20240612)
    models = {1: KahlerModel(1, 2.0), 2: KahlerModel(2, 3.0)}
    worst = math.inf
    for _ in range(50):
        n = int(rng.integers(1, 3))
        m = models[n]
        gamma = float(rng.uniform(0.2, 0.9)) * m.degree
        eps = 10.0 ** float(rng.uniform(-4.0, -1.0))
        u, v, a, b = comparison_pair(m, gamma, eps)
        result = bt_compare(u, v, a, b)
        assert result.hypotheses_ok and result.holds, (n, gamma, eps)
        assert result.margin >= -1e-9
        worst = min(worst, result.margin)
    report(5, f"50 randomized comparisons hold; worst margin {worst:.2e}")


def test_criterion_06_point_mass_suite(model_n1):
    worst = 0.0
    for a in (1.0, 0.1, 0.01):
        val = disc_mass_quad(lambda r2, a=a: dirac_density(a, r2), 200.0)
        tail = a * a / (200.0**2 + a * a)
        dev = abs(val + tail - 1.0)
        worst = max(worst, dev)
        assert dev <= 1e-6
    g = model_n1.grid
    for a in (1.0, 0.1, 0.01):
        q = -np.log(dirac_density(a, np.exp(g.nodes)))
        assert np.min(second_derivative(q, g.h)[1:-1]) >= -1e-9
    report(6, f"unit mass within {worst:.2e}; negative log curvature "
              "nonnegative at all nodes for a in {1, 0.1, 0.01}")


def test_criterion_07_curvature_suite():
    etas = []
    for n in (1, 2):
        m = KahlerModel(n, float(n + 1))
        u = RadialPotential(m.grid, m.psi, n)
        gap = (ricci_potential(u) - m.psi[1:-1])[resolvable_curvature(u)]
        assert np.max(np.abs(np.diff(gap, 2))) <= 1e-8
        eta = check_lower_bound(constant_rhs(m)).eta
        assert abs(eta - (n + 1)) <= 1e-6
        etas.append(eta)
    report(7, f"Einstein residual affine at 1e-8; margins eta = {etas}")


def test_criterion_08_multiplier_thresholds(model_n1):
    cases = []
    for k in (0, 1, 2, 3):
        for p in (0.5, 1.0, float(k + 1), k + 1.5, k + 0.25):
            cases.append((k, p))
    cases = cases[:20]
    tau = 0.5
    s = model_n1.grid.nodes
    for k, p in cases:
        phi = (p / tau) * np.minimum(s, 0.0)
        g = germ_integral(k, phi, tau, constant_rhs(model_n1))
        assert g.finite == (k + 1 > p), (k, p)
    entries = tuple(((3.5 / t) * np.minimum(s, 0.0), t, constant_rhs(model_n1))
                    for t in (0.4, 0.5))
    stalk = stalk_from_sequence(PotentialSequence(model_n1, entries))
    assert stalk.k_min == 3
    report(8, "20-point lattice classified exactly; tau*nu = 3.5 at n = 1 "
              "gives vanishing order 3")


def test_criterion_09_first_integral(model_n1):
    # one application of the first-integral map T integrates the rows with
    # the weights of its input at the balanced level, bal: at T(phi) each
    # interior row is left with exactly the change of weight,
    # (e^{sigma t bal} - e^{sigma t T(phi)}) R, and both flux rows hold
    rng = np.random.default_rng(99)
    rhs = build_dirac_rhs(1.0, 1e-2, model_n1)
    kind = magnifying(0.3)
    g = model_n1.grid
    T = _first_integral_map(rhs, kind)
    n, h, W = model_n1.n, g.h, model_n1.psi_slopes
    flux = W[-1] ** n - (W[0] + rhs.left_flux_offset) ** n
    phi0 = gaussian_bump(g, 0.1)
    worst = 0.0
    for _ in range(10):
        coeffs = rng.normal(size=6)
        v = sum(c * np.sin((k + 3) * np.pi * (g.nodes - g.s_min) / 80.0)
                for k, c in enumerate(coeffs))
        v *= np.exp(-g.nodes**2 / 200.0)
        phi = phi0 + 0.1 * v
        t_phi = T(phi)
        bal = phi + (t_phi[-1] - phi[-1])  # T(phi) ends at the balanced level
        rate, R = kind.exponent_rate, rhs.density
        # at that level the weighted cell masses carry the right row's flux
        assert n * h * np.sum(np.exp(rate * bal[1:-1]) * R) == pytest.approx(flux, rel=1e-12)
        r = residual_from_perturbation(t_phi, rhs, kind)
        change = (np.exp(rate * bal[1:-1]) - np.exp(rate * t_phi[1:-1])) * R
        rel = float(np.max(np.abs(r[1:-1] - change)) / np.max(np.abs(change)))
        worst = max(worst, rel)
        assert rel <= 1e-6
        assert abs(r[0]) <= 1e-12 and abs(r[-1]) <= 1e-12
    report(9, f"first integral vs rows: worst relative error {worst:.2e}")


def test_criterion_10_slope_suite():
    for n in range(2, 65):
        assert destabilizes(line_tangent(), tangent_on_line(n))
        assert normalized_slope(tangent_on_line(n)) == Fraction(n + 1, n)
    with pytest.raises(ConfigurationError):
        destabilizes(line_tangent(), tangent_on_line(1))
    report(10, "degree-2 piece destabilizes the restricted tangent bundle "
               "for all n in 2..64; n = 1 raises the precondition error")
