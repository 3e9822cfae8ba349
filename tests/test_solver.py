"""Fixed-point solver, neutral oracle, continuity drivers, sweeps."""

import functools
import itertools
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialma import (
    ConfigurationError,
    EquationKind,
    KahlerModel,
    SGrid,
    SolveConfig,
    bootstrap_lelong_bound,
    build_dirac_rhs,
    build_divisor_rhs,
    constant_rhs,
    continuity_in_t,
    magnifying,
    neutral,
    neutral_oracle,
    newton_solve,
    reducing,
    sweep_epsilon,
)
from radialma import solver
from radialma.geometry import LELONG_WINDOW, LelongEstimate, expit, pole_lelong
from radialma.grid import rounding_floor
from radialma.solver import (
    _anderson,
    _dilated,
    _first_integral_map,
    _mixed,
    diagnostics_for,
    residual_from_perturbation,
)

from conftest import gaussian_bump
from oracles import (
    continuum_neutral_potential,
    density_floor,
    diagnostics_per_call,
    second_derivative,
    xi_eps_d1,
    xi_eps_d2,
)


ALL_KINDS_T = [("reducing", 0.25), ("reducing", 0.5), ("reducing", 0.9),
               ("magnifying", 0.25), ("magnifying", 0.5), ("magnifying", 0.9),
               ("neutral", 0.0)]


class TestEquationKind:
    def test_time_range_validated(self):
        with pytest.raises(ConfigurationError):
            EquationKind("magnifying", 1.0)
        with pytest.raises(ConfigurationError):
            EquationKind("reducing", -0.1)
        assert EquationKind("neutral").exponent_rate == 0.0
        assert EquationKind("reducing", 0.5).exponent_rate == 0.5
        assert EquationKind("magnifying", 0.5).exponent_rate == -0.5


class TestResidual:
    @pytest.mark.parametrize("kind,t", ALL_KINDS_T)
    def test_reference_is_exact_zero_for_unit_rhs(self, model_n1, kind, t):
        rhs = constant_rhs(model_n1)
        r = residual_from_perturbation(np.zeros(model_n1.grid.points), model_n1, rhs,
                                       EquationKind(kind, t))
        assert np.max(np.abs(r)) == 0.0

    def test_neutral_n1_is_linear_in_curvature(self, model_n1):
        # for n = 1 the neutral residual is u'' - F psi'': adding a bump
        # changes the residual by exactly the bump's second difference
        rhs = build_dirac_rhs(0.7, 1e-2, model_n1)
        g = model_n1.grid
        bump = gaussian_bump(g, 0.2)
        r0 = residual_from_perturbation(np.zeros(g.points), model_n1, rhs, neutral())
        r1 = residual_from_perturbation(bump, model_n1, rhs, neutral())
        expected = second_derivative(bump, g.h)
        assert np.max(np.abs((r1 - r0)[1:-1] - expected[1:-1])) < 1e-11

    def test_constant_shift_magnifying_closed_form(self, model_n1):
        # phi = c: interior residual is W (1 - e^{-tc} F), here F = 1
        rhs = constant_rhs(model_n1)
        c, t = 0.8, 0.5
        phi = np.full(model_n1.grid.points, c)
        r = residual_from_perturbation(phi, model_n1, rhs, magnifying(t))
        w = model_n1.weight
        expected = w * (1.0 - np.exp(-t * c))
        assert np.max(np.abs(r[1:-1] - expected)) < 1e-14
        # sign check: positive wherever the weight is resolvable
        bulk = np.abs(model_n1.grid.nodes[1:-1]) <= 20.0
        assert np.all(r[1:-1][bulk] > 0.0)
        assert np.min(r[1:-1]) > -1e-9
        # phi read back from u = psi + c agrees up to the representation
        # rounding of u
        phi_u = (model_n1.psi.values + c) - model_n1.psi.values
        r_u = residual_from_perturbation(phi_u, model_n1, rhs, magnifying(t))
        assert np.max(np.abs(r_u[1:-1] - expected)) < 1e-9


class TestFirstIntegral:
    # a dirac RHS on a small grid, for every n and time-dependent kind
    GRID = SGrid(-16.0, 16.0, 41)

    @settings(derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 3),
           kind=st.sampled_from(["reducing", "magnifying"]),
           t=st.floats(0.01, 0.95, exclude_max=True),
           amplitude=st.floats(-0.5, 0.5),
           center=st.floats(-5.0, 5.0),
           width=st.floats(1.0, 4.0))
    def test_map_integrates_the_rows(self, n, kind, t, amplitude, center, width):
        # T(phi) integrates the rows with the weights of phi at its balanced
        # level, the level it ends at: there the weighted cell masses carry
        # the right row's flux, and T(phi) meets both flux rows and leaves
        # each interior row with the change of weight
        # (e^{sigma t bal} - e^{sigma t T(phi)}) R
        m = KahlerModel(n, n + 1.0, self.GRID)
        rhs = build_dirac_rhs(0.5 * (n + 1.0), 1e-1, m)
        eq = EquationKind(kind, t)
        phi = gaussian_bump(m.grid, amplitude, center, width)
        t_phi = _first_integral_map(m, rhs, eq)(phi)
        bal = phi + (t_phi[-1] - phi[-1])
        W, h = m.psi_slopes, m.grid.h
        flux = W[-1] ** n - (W[0] + rhs.left_flux_offset) ** n
        rate, R = eq.exponent_rate, rhs.density
        assert n * h * np.sum(np.exp(rate * bal[1:-1]) * R) == pytest.approx(flux, rel=1e-12)
        r = residual_from_perturbation(t_phi, m, rhs, eq)
        change = (np.exp(rate * bal[1:-1]) - np.exp(rate * t_phi[1:-1])) * R
        assert np.max(np.abs(r[1:-1] - change)) <= 1e-12 * np.max(R)
        assert abs(r[0]) <= 1e-12 and abs(r[-1]) <= 1e-12
        # whatever phi, the slopes of T(phi) are nonnegative and
        # nondecreasing: Kahler by construction, up to the rounding of |phi|
        w = W + np.diff(t_phi) / h
        slack = 4.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(t_phi))) / h
        assert np.min(w) >= -slack
        assert np.min(np.diff(w)) >= -slack

    def test_singular_normal_equations_take_the_plain_step(self):
        # a difference row of zeros (the residual did not change) makes the
        # Gram matrix singular; an overflowed one makes it non-finite
        rng = np.random.default_rng(0)
        g, f = rng.normal(size=(2, 7))
        dG = rng.normal(size=(2, 7))
        for bad in (0.0, np.inf):
            dF = np.vstack([rng.normal(size=7), np.full(7, bad)])
            with np.errstate(invalid="ignore"):
                assert _mixed(g, f, dF @ dF.T, dF, dG) is g
        # a regular system mixes: gamma is the least-squares fit of f by dF
        dF = rng.normal(size=(2, 7))
        gamma = np.linalg.lstsq(dF.T, f, rcond=None)[0]
        assert np.allclose(_mixed(g, f, dF @ dF.T, dF, dG), g - gamma @ dG)


class TestFixedPoints:
    @pytest.mark.parametrize("n,d", [(1, 2.0), (2, 3.0)])
    @pytest.mark.parametrize("kind,t", ALL_KINDS_T)
    def test_unit_rhs_fixed_point_from_perturbed_start(self, n, d, kind, t):
        m = KahlerModel(n, d)
        rhs = constant_rhs(m)
        cfg = SolveConfig(newton_tol=1e-13, max_iters=50)
        res = newton_solve(m, rhs, EquationKind(kind, t), cfg, gaussian_bump(m.grid, 0.3))
        assert res.converged
        assert res.iterations <= 25
        assert np.max(np.abs(res.phi)) <= 1e-9

    def test_sin_bump_start_n1(self, model_n1):
        # full-domain sine perturbation, the classical smoke case for n = 1
        g = model_n1.grid
        bump = 0.3 * np.sin(np.pi * (g.nodes - g.s_min) / (g.s_max - g.s_min))
        res = newton_solve(model_n1, constant_rhs(model_n1), magnifying(0.5), start=bump)
        assert res.converged and np.max(np.abs(res.phi)) <= 1e-9
        assert res.residual_norm <= 1e-10

    def test_non_finite_level_fails_the_solve(self, model_n1):
        # at t = 5e-324 the balanced level, the budget gap divided by t,
        # overflows: the solve keeps its start and reports it, it does not
        # raise from the diagnostics of an infinite phi
        rhs = build_dirac_rhs(1.8, 1e-4, model_n1)
        res = newton_solve(model_n1, rhs, magnifying(5e-324))
        assert not res.converged
        assert res.message == "fixed-point map produced non-finite values"
        assert res.iterations == 0
        assert np.array_equal(res.phi, np.zeros(model_n1.grid.points))
        assert np.isfinite(res.residual_norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_guess_rejected(self, model_n1, bad):
        guess = np.zeros(model_n1.grid.points)
        guess[100] = bad
        with pytest.raises(ConfigurationError, match="^potential values must be finite$"):
            newton_solve(model_n1, constant_rhs(model_n1), magnifying(0.5), start=guess)

    def test_an_iterate_that_leaves_no_mass_fails_the_solve(self):
        # far below s = 0 the constant family's cell masses underflow to 0;
        # a start whose weight sits at one of them alone leaves no mass to
        # balance, so the map has no finite image
        m = KahlerModel(1, 2.0, SGrid(-800.0, 40.0, 8001))
        rhs, kind = constant_rhs(m), magnifying(0.5)
        phi = np.zeros(m.grid.points)
        phi[10] = -1e4
        assert rhs.density[9] == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(_first_integral_map(m, rhs, kind)(phi)).all()
        res = newton_solve(m, rhs, kind, start=phi)
        assert res.message == "fixed-point map produced non-finite values"
        assert res.iterations == 0 and not res.converged
        assert np.array_equal(res.phi, phi)

    def test_anderson_stops_on_its_step(self):
        # a constant map: the start takes its image's level and the next
        # iterate is the fixed point, where the step alone stops the loop
        target = np.linspace(0.0, 1.0, 9)
        start = np.full(9, 5.0)
        phi, iters, message = _anderson(lambda x: target.copy(), start, 1e-12, 10)
        assert np.array_equal(phi, target) and (iters, message) == (1, "")
        # a start at the fixed point stops before the first iteration
        phi, iters, message = _anderson(lambda x: target.copy(), target, 1e-12, 10)
        assert np.array_equal(phi, target) and (iters, message) == (0, "")
        # a step not met at max_iters names the step
        phi, iters, message = _anderson(lambda x: x[::-1] + 1.0, target, 1e-12, 3)
        assert iters == 3 and message.startswith("max_iters reached, step ")
        # a non-finite image keeps the caller's start
        phi, iters, message = _anderson(lambda x: np.full(9, np.inf), start, 1e-12, 3)
        assert np.array_equal(phi, start) and iters == 0
        assert message == "fixed-point map produced non-finite values"


@functools.cache
def stop_rule_model(n, points):
    return KahlerModel(n, n + 1.0, SGrid(-40.0, 40.0, points))


class TestStopRule:
    """The fixed-point step is the one stop rule, and it bounds the rows: an
    image g = T(phi), f = g - phi, meets every row at the weights
    e^{rho (phi + kappa)}, kappa = f_{N-1}, so interior row i of g reads
    R_i e^{rho g_i} (e^{-rho (f_i - kappa)} - 1), at most
    expm1(2 |rho| tau) e^{rho g_i} R_i once ||f|| <= tau, plus the rounding
    of the slope powers (``density_floor``). The boundary rows are met to
    the rounding of a slope, ``rounding_floor`` h."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 4), points=st.sampled_from([401, 801, 4001]),
           family=st.sampled_from(["constant", "dirac", "divisor"]),
           kind=st.sampled_from(["reducing", "magnifying", "neutral"]),
           t=st.floats(0.05, 0.95), share=st.floats(0.05, 0.95),
           log_eps=st.floats(-4.0, -1.0))
    def test_a_converged_solve_meets_every_row(self, n, points, family, kind, t, share,
                                               log_eps):
        m = stop_rule_model(n, points)
        eps = 10.0 ** log_eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a layer below the cut
            rhs = {"constant": lambda: constant_rhs(m),
                   "dirac": lambda: build_dirac_rhs(share * m.degree, eps, m),
                   "divisor": lambda: build_divisor_rhs(share * n, eps, m)}[family]()
        eq = EquationKind(kind, t)
        res = newton_solve(m, rhs, eq)
        assume(res.converged)
        g, h, tau, rho = res.phi, m.grid.h, SolveConfig().newton_tol, eq.exponent_rate
        r = residual_from_perturbation(g, m, rhs, eq)
        assert res.residual_norm == np.max(np.abs(r))
        floor = rounding_floor(g, h)
        w = np.abs(m.psi_slopes + np.diff(g) / h)
        limit = np.maximum(tau, np.expm1(2.0 * abs(rho) * tau) * np.exp(rho * g[1:-1])
                           * rhs.density + density_floor(floor, w, n))
        assert np.all(np.abs(r[1:-1]) <= limit)
        assert max(abs(r[0]), abs(r[-1])) <= floor * h


class TestNeutralOracle:
    def test_unit_rhs_reproduces_reference(self, model_n1, model_n2):
        for m in (model_n1, model_n2):
            u = neutral_oracle(m, constant_rhs(m))
            assert np.max(np.abs(u.values - m.psi.values)) < 1e-10

    def test_left_slope_is_pole_mass_in_the_limit(self, model_n1):
        # the secant above the layer reads the prescribed pole mass within
        # three times its own resolution estimate; the worst ratio
        # |nu - gamma| / sensitivity is 2.2, at n = 1, gamma = 0.6, eps = 1e-2
        for n, frac, eps in itertools.product((1, 2, 3), (0.3, 0.5, 0.9),
                                              (1e-2, 1e-3, 1e-4)):
            m = KahlerModel(n, n + 1.0)
            rhs = build_dirac_rhs(frac * m.degree, eps, m)
            u = neutral_oracle(m, rhs)
            est = pole_lelong(u.values - m.psi.values, m, rhs)
            assert abs(est.value - frac * m.degree) <= 3.0 * est.sensitivity, (n, frac, eps)
        # once the layer separates from the bulk it reads gamma to 1 %: a
        # relative error of 0.0072 at eps = 1e-3 and 0.0004 at 1e-4
        for eps in (1e-3, 1e-4):
            rhs = build_dirac_rhs(1.2, eps, model_n1)
            u = neutral_oracle(model_n1, rhs)
            nu = pole_lelong(u.values - model_n1.psi.values, model_n1, rhs).value
            assert nu == pytest.approx(1.2, rel=0.01)

    # gamma = d/2 for n in 1..4 (n = 4 only at eps = 1e-1: below it the
    # n = 4 residual exceeds 1e-10 within its rounding floor, see
    # TestRoundingFloor), and gamma in {0.3, 0.9} d for n <= 2
    @pytest.mark.parametrize("n,frac,eps", [
        *((n, 0.5, eps) for n in (1, 2, 3) for eps in (1e-1, 1e-3, 1e-5)),
        (4, 0.5, 1e-1),
        *((n, frac, eps) for n in (1, 2) for frac in (0.3, 0.9)
          for eps in (1e-1, 1e-3, 1e-5))])
    def test_neutral_solve_is_the_quadrature(self, n, frac, eps):
        # the flux-form rows telescope for every n: the quadrature is the
        # exact discrete neutral solution, returned without iterating
        d = n + 1.0
        gamma = frac * d
        m = KahlerModel(n, d)
        rhs = build_dirac_rhs(gamma, eps, m)
        # the point-mass cell masses are nonnegative: adding them to the
        # smooth part never lowers a density value
        assert np.all(rhs.density >= rhs.c_smooth * m.weight)
        res = newton_solve(m, rhs, neutral(), start=gaussian_bump(m.grid))
        assert res.converged and res.iterations == 0
        assert res.residual_norm <= 1e-10
        assert np.array_equal(res.u.values, neutral_oracle(m, rhs).values)
        assert abs(res.diagnostics.mass - d**n) <= 1e-9 * d**n
        assert res.u.is_kahler()
        if eps <= 1e-3:
            assert abs(res.diagnostics.lelong.value - gamma) <= 0.02
        # the discrete first integral the left flux makes exact: at every
        # face the slope power is the point mass's plus the smooth part's
        h = m.grid.h
        xi_slopes = np.log1p(np.expm1(h) * xi_eps_d1(m.grid.nodes[:-1], eps)) / h
        powers = gamma**n * xi_slopes**n + rhs.c_smooth * m.psi_slopes**n
        w = np.diff(res.u.values) / h
        assert np.max(np.abs(w**n - powers)) <= 1e-11 * np.max(powers)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [None, 1e-1, 1e-3, 1e-5])
    def test_left_flux_row_solved(self, n, eps):
        # the closed-form first slope zeroes the left row
        m = KahlerModel(n, n + 1.0)
        rhs = constant_rhs(m) if eps is None else build_dirac_rhs(1.0, eps, m)
        phi = neutral_oracle(m, rhs).values - m.psi.values
        assert abs(residual_from_perturbation(phi, m, rhs, neutral())[0]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_left_flux_row_solved_at_zero_slope(self, n):
        # psi's first half-node slope underflows at s_min = -800, so the
        # first slope of u is 0 and the left row vanishes exactly
        m = KahlerModel(n, n + 1.0, SGrid(-800.0, 40.0, 8001))
        rhs = constant_rhs(m)
        u = neutral_oracle(m, rhs)
        assert u.values[1] == u.values[0]
        assert residual_from_perturbation(u.values - m.psi.values, m, rhs, neutral())[0] == 0.0

    def test_grid_convergence_second_order(self):
        # against adaptive quadrature of the continuum first integral;
        # halving h must shrink the gap by at least a factor 3
        n, d, gamma, eps = 2, 3.0, 1.0, 3e-2
        gaps = []
        for points in (1001, 2001):
            m = KahlerModel(n, d, SGrid(-40.0, 40.0, points))
            rhs = build_dirac_rhs(gamma, eps, m)
            u = neutral_oracle(m, rhs)
            c = rhs.c_smooth

            def slope_power(s, c=c, m=m):
                return gamma**n * xi_eps_d1(s, eps) ** n + c * (m.degree * expit(s)) ** n

            sample = np.linspace(-20.0, 10.0, 16)
            ref = continuum_neutral_potential(m, slope_power, sample)
            here = np.interp(sample, m.grid.nodes, u.values)
            gaps.append(np.max(np.abs(here - ref)))
        assert gaps[0] / gaps[1] >= 3.0


class TestSingularSolves:
    def test_neutral_dirac_lelong(self, model_n1):
        # feeding pole mass gamma through the neutral equation returns
        # exactly that pole, measured above the mollified layer
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, neutral())
        assert res.converged
        assert res.diagnostics.lelong.value == pytest.approx(1.0, rel=0.02)

    def test_reducing_shrinks_the_pole(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        base = newton_solve(model_n1, rhs, neutral())
        trace, res = continuity_in_t(model_n1, rhs, reducing(0.5), 0.5)
        assert trace.verdict == "reached_target"
        nu_neutral = base.diagnostics.lelong.value
        nu_reduced = res.diagnostics.lelong.value
        assert nu_reduced < 0.95 * nu_neutral

    def test_reducing_against_shooting_oracle(self, model_n1):
        # independent route: integrate the pole-shrinking equation with an
        # adaptive ODE solver, shooting in the additive level to match the
        # right flux, and compare with the Newton path
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        m = model_n1
        gamma, eps, t = 1.0, 1e-3, 0.5
        rhs = build_dirac_rhs(gamma, eps, m)
        c = rhs.c_smooth

        def reduced_density(s):
            return gamma * xi_eps_d2(s, eps) + c * m.degree * expit(s) * expit(-s)

        def psi_of(s):
            return m.degree * np.logaddexp(0.0, s)

        def ode(s, y):
            u, p = y
            rate = np.clip(t * (u - psi_of(s)), -700.0, 700.0)
            return [p, np.exp(rate) * reduced_density(s)]

        smin, smax = m.grid.s_min, m.grid.s_max
        beta = float(m.degree * expit(smin))
        target = float(m.degree * expit(smax))

        def end_slope_gap(level):
            sol = solve_ivp(ode, (smin, smax), [psi_of(smin) + level, beta],
                            rtol=1e-10, atol=1e-12, max_step=2.0)
            return sol.y[1, -1] - target

        level = brentq(end_slope_gap, -30.0, 5.0, xtol=1e-10)
        shot = solve_ivp(ode, (smin, smax), [psi_of(smin) + level, beta],
                         rtol=1e-10, atol=1e-12, max_step=2.0, dense_output=True)
        _, res = continuity_in_t(m, rhs, reducing(t), t)
        assert res.converged
        sample = np.linspace(-20.0, 20.0, 21)
        u_newton = np.interp(sample, m.grid.nodes, res.u.values)
        u_shot = shot.sol(sample)[0]
        assert np.max(np.abs(u_newton - u_shot)) < 5e-3
        # both agree the pole shrank strictly below what was fed in
        nu_shot = shot.sol([rhs.pole_anchor])[1][0]
        assert nu_shot < 1.0
        assert res.diagnostics.lelong.value < 1.0

    def test_magnifying_inflates_the_pole(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        base = newton_solve(model_n1, rhs, neutral())
        trace, res = continuity_in_t(model_n1, rhs, magnifying(0.2), 0.2)
        assert trace.verdict == "reached_target"
        assert res.diagnostics.lelong.value > base.diagnostics.lelong.value

    def test_mass_conservation(self, model_n1, model_n2):
        # converged solutions carry the model mass d^n
        runs = []
        rhs1 = build_dirac_rhs(1.5, 1e-3, model_n1)
        runs.append((model_n1, newton_solve(model_n1, rhs1, neutral())))
        _, res = continuity_in_t(model_n1, rhs1, magnifying(0.2), 0.2)
        runs.append((model_n1, res))
        rhs2 = build_dirac_rhs(1.0, 1e-3, model_n2)
        runs.append((model_n2, newton_solve(model_n2, rhs2, neutral())))
        for m, r in runs:
            assert r.converged
            assert abs(r.diagnostics.mass - m.degree**m.n) <= 1e-7

    def test_positivity_of_converged_solutions(self, model_n1):
        rhs = build_dirac_rhs(1.8, 1e-4, model_n1)
        _, res = continuity_in_t(model_n1, rhs, magnifying(0.2), 0.2)
        assert res.converged
        assert res.u.is_kahler()

    def test_divisor_neutral(self, model_n1):
        rhs = build_divisor_rhs(0.4, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, neutral())
        assert res.converged and res.iterations == 0
        assert abs(res.diagnostics.mass - 2.0) <= 1e-9
        assert res.u.is_kahler()

    @pytest.mark.parametrize("n,d", [(2, 3.0), (1, 5.0)])
    def test_rhs_of_another_model_rejected(self, model_n1, n, d):
        # the grids agree; the right-hand side was built for n = 1, d = 2
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        with pytest.raises(ConfigurationError, match="right-hand side built for"):
            newton_solve(KahlerModel(n, d), rhs, magnifying(0.3))
        with pytest.raises(ConfigurationError, match="right-hand side built for"):
            continuity_in_t(KahlerModel(n, d), rhs, magnifying(0.3), 0.3)

    def test_max_iters_stop_gives_reason(self, model_n1):
        rhs = build_dirac_rhs(1.8, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, magnifying(0.5), SolveConfig(max_iters=1))
        assert not res.converged and res.iterations == 1
        assert res.message.startswith("max_iters reached")

    @pytest.mark.parametrize("field,value", [
        ("newton_tol", np.inf), ("newton_tol", np.nan), ("newton_tol", -1e-10),
        ("max_iters", 2.5), ("max_iters", 0),
    ])
    def test_settings_of_the_wrong_kind_rejected(self, field, value):
        # newton_tol = inf "converged" after 0 iterations with residual 186;
        # nan ran to max_iters; max_iters = 2.5 never fired
        with pytest.raises(ConfigurationError, match=field):
            SolveConfig(**{field: value})

    def test_integer_cap_of_any_integer_type(self, model_n1):
        rhs = build_dirac_rhs(1.8, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, magnifying(0.5),
                           SolveConfig(max_iters=np.int64(3)))
        assert not res.converged and res.iterations == 3


class TestContinuity:
    def test_time_zero_base_always_solvable(self, model_n1):
        rhs = build_dirac_rhs(1.8, 1e-2, model_n1)
        trace, _ = continuity_in_t(model_n1, rhs, magnifying(0.1), 0.1)
        assert trace.entries[0].param == 0.0
        assert trace.entries[0].converged

    def test_unit_rhs_full_path(self, model_n1):
        trace, res = continuity_in_t(model_n1, constant_rhs(model_n1),
                                     magnifying(0.9), 0.9)
        assert trace.verdict == "reached_target"
        for rec in trace.entries:
            assert abs(rec.diagnostics.sup_phi) <= 1e-9
        assert np.max(np.abs(res.phi)) <= 1e-9

    def test_barrier_bookkeeping(self, model_n1):
        # starve the solver so continuation cannot take a single step
        rhs = build_dirac_rhs(1.8, 1e-3, model_n1)
        cfg = SolveConfig(newton_tol=1e-14, max_iters=1)
        trace, _ = continuity_in_t(model_n1, rhs, magnifying(0.5), 0.5, cfg)
        assert trace.verdict == "barrier"
        assert trace.t_star is not None
        assert not trace.entries[-1].converged

    def test_monotone_parameters(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-2, model_n1)
        trace, _ = continuity_in_t(model_n1, rhs, magnifying(0.3), 0.3)
        params = [rec.param for rec in trace.entries]
        assert params == sorted(params)

    @pytest.mark.parametrize("n,kind,iterations,steps", [
        (1, "magnifying", 11, 1), (1, "reducing", 11, 1),
        (2, "magnifying", 13, 1), (2, "reducing", 11, 1)])
    def test_work_counts(self, request, n, kind, iterations, steps):
        # fixed-point iterations over the trace and accepted steps, gamma = 1,
        # eps = 1e-3, t = 0.2: measured 9, 9, 11 and 9 iterations in one
        # step. Plain iteration without the Anderson mixing needs 16, a
        # barrier, 16 and 251.
        m = request.getfixturevalue(f"model_n{n}")
        rhs = build_dirac_rhs(1.0, 1e-3, m)
        trace, _ = continuity_in_t(m, rhs, EquationKind(kind, 0.2), 0.2)
        assert trace.verdict == "reached_target"
        assert sum(rec.iterations for rec in trace.entries) <= iterations
        assert len(trace.entries) - 1 <= steps

    def test_exactly_one_verdict(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-2, model_n1)
        for target in (0.2, 0.6):
            trace, _ = continuity_in_t(model_n1, rhs, magnifying(target), target)
            assert trace.verdict in ("reached_target", "barrier")
            assert (trace.verdict == "barrier") == (trace.t_star is not None)

    @pytest.mark.parametrize("n,gamma,eps,t,cfg,verdict", [
        # starved: the neutral base itself misses newton_tol
        (1, 1.8, 1e-3, 0.5, SolveConfig(newton_tol=1e-14, max_iters=1), "barrier"),
        # the average passes 50 on the way to t = 0.9; a solution exists
        (1, 1.8, 1e-6, 0.9, None, "reached_target"),
        (1, 1.0, 1e-3, 0.2, None, "reached_target"),
        # n = 3: its rows meet their rounding floor, in one step
        (3, 2.0, 1e-3, 0.5, None, "reached_target")])
    def test_returns_last_attempted_solve(self, n, gamma, eps, t, cfg, verdict):
        m = KahlerModel(n, n + 1.0)
        rhs = build_dirac_rhs(gamma, eps, m)
        trace, res = continuity_in_t(m, rhs, magnifying(t), t, cfg)
        assert trace.verdict == verdict
        assert res is not None
        assert res.converged == (trace.verdict == "reached_target")
        if trace.verdict == "barrier":
            assert res.diagnostics is trace.entries[-1].diagnostics
            assert res.kind.t == trace.entries[-1].param
        else:
            assert trace.entries[-1].param == t
            assert res.kind.t == t

    @staticmethod
    def _chain_step(m, rhs, kind, step, t0, t1):
        """Warm-started solve at t1 from the solve at t0; a failing interval
        is bisected, as continuation halves a failing step."""
        at = EquationKind(kind, t1)
        res = newton_solve(m, rhs, at, start=step.phi)
        if res.converged or t1 - t0 < solver.BARRIER_STEP_FLOOR:
            return res
        mid = TestContinuity._chain_step(m, rhs, kind, step, t0, 0.5 * (t0 + t1))
        if not mid.converged:
            return mid
        return TestContinuity._chain_step(m, rhs, kind, mid, 0.5 * (t0 + t1), t1)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["magnifying", "reducing"])
    def test_path_independent(self, n, kind):
        # the doubling schedule lands on the solution of the old fine path:
        # a chain of warm-started solves at t = 0.05, 0.10, ..., 0.6
        m = KahlerModel(n, n + 1.0)
        rhs = build_dirac_rhs((n + 1.0) / 2, 1e-3, m)
        step = newton_solve(m, rhs, neutral())
        for k in range(1, 13):
            if not step.converged:
                break
            step = self._chain_step(m, rhs, kind, step, (k - 1) / 20, k / 20)
        trace, res = continuity_in_t(m, rhs, EquationKind(kind, 0.6), 0.6)
        assert trace.verdict == ("reached_target" if step.converged else "barrier")
        assert res.kind == step.kind
        assert np.max(np.abs(res.phi - step.phi)) <= 1e-8

    @pytest.mark.parametrize("d,gamma,eps,kind,t", [
        (5.0, 0.05, 1e-4, "magnifying", 0.5964),
        (6.5, 3.25, 10.0 ** -1.5, "reducing", 0.5),
    ])
    def test_no_creep_at_n4(self, d, gamma, eps, kind, t):
        # where R is large a row reads about rate R times the last step; a
        # loop that stops on the step alone left such a row unmet by chance,
        # and the continuation alternated accepted and failed attempts for
        # thousands of steps
        m = KahlerModel(4, d, SGrid(-40.0, 40.0, 801))
        trace, res = continuity_in_t(m, build_dirac_rhs(gamma, eps, m),
                                     EquationKind(kind, t), t)
        assert trace.verdict == "reached_target", res.message
        assert len(trace.entries) - 1 <= 2


class TestSmallTime:
    """As t -> 0 the t-family tends to the neutral base minus its R-weighted
    mean, the level at which the first-order mass budget balances."""

    @pytest.mark.parametrize("t_target,tol", [
        pytest.param(1e-8, 1e-5, marks=pytest.mark.xfail(strict=True, reason=(
            "for n = 1 the dirac family's discrete mass budget misses the flux "
            "by the pole mass below the cut (7.7e-10 here), and the level "
            "absorbs it divided by t: at t = 1e-8 phi lies 3.9e-2 from the "
            "limit"))),
        # the level is 3.9e5 here, far from the limit, but the solve converges
        (1e-15, None)])
    def test_tends_to_the_balanced_neutral_base(self, model_n1, t_target, tol):
        rhs = build_dirac_rhs(1.8, 1e-4, model_n1)
        base = newton_solve(model_n1, rhs, neutral()).phi
        R = rhs.density
        limit = base - np.dot(base[1:-1], R) / np.sum(R)
        trace, res = continuity_in_t(model_n1, rhs, magnifying(t_target), t_target)
        assert trace.verdict == "reached_target"
        assert res.kind == magnifying(t_target)
        if tol is not None:
            assert np.max(np.abs(res.phi - limit)) <= tol

    @pytest.mark.parametrize("t_target", [1e-14, 1e-15, 5e-324])
    def test_every_positive_target_is_attempted(self, model_n1, t_target):
        # however small t_target, the continuation solves the requested kind
        # at t_target: it never returns the neutral base as the target solve
        rhs = build_dirac_rhs(1.8, 1e-4, model_n1)
        trace, res = continuity_in_t(model_n1, rhs, magnifying(t_target), t_target)
        assert res.kind == magnifying(t_target)
        assert trace.entries[-1].param == t_target
        assert res.converged == (trace.verdict == "reached_target")
        if t_target == 1e-14:
            assert trace.verdict == "reached_target"


class TestRange:
    # the north-star invariants over the range the validators accept, on a
    # grid coarse enough to sample it widely
    GRID = SGrid(-40.0, 40.0, 801)

    @staticmethod
    def _assert_kahler_by_construction(res, m):
        n, h = m.n, m.grid.h
        w = m.psi_slopes + np.diff(res.phi) / h
        slack = 4.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(res.phi))) / h
        assert np.min(w) >= -slack
        assert np.min(np.diff(w)) >= -slack
        cells = np.diff(w ** n) / (n * h)
        assert np.min(cells) >= -slack * max(1.0, np.max(w)) ** (n - 1) / h
        assert res.diagnostics.mass == pytest.approx(m.degree ** n, rel=1e-9)
        assert res.u.is_kahler()

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(n=st.integers(1, 4),
           excess=st.sampled_from([1.0, 2.5]),
           gamma=st.floats(0.01, 0.95),
           log_eps=st.floats(-4.0, -1.0),
           t=st.floats(0.01, 0.95),
           kind=st.sampled_from(["reducing", "magnifying"]))
    def test_invariants(self, n, excess, gamma, log_eps, t, kind):
        # gamma is a fraction of d; either verdict is a valid outcome
        m = KahlerModel(n, n + excess, self.GRID)
        rhs = build_dirac_rhs(gamma * m.degree, 10.0 ** log_eps, m)
        base = newton_solve(m, rhs, neutral())
        assert base.converged, base.message
        self._assert_kahler_by_construction(base, m)
        trace, res = continuity_in_t(m, rhs, EquationKind(kind, t), t)
        again, res_again = continuity_in_t(m, rhs, EquationKind(kind, t), t)
        assert trace.verdict in ("reached_target", "barrier")
        assert res.converged == (trace.verdict == "reached_target")
        assert (trace.t_star is not None) == (trace.verdict == "barrier")
        if res.converged:
            self._assert_kahler_by_construction(res, m)
        assert again.verdict == trace.verdict and again.t_star == trace.t_star
        assert ([(e.param, e.iterations, e.residual_norm) for e in again.entries]
                == [(e.param, e.iterations, e.residual_norm) for e in trace.entries])
        assert np.array_equal(res_again.phi, res.phi)


class TestRoundingFloor:
    # cases whose rows sit at the rounding floor of newton_tol, where the
    # verdict used to turn on the step path or the last bit of t

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_n4_neutral_quadrature_converged(self, eps):
        m = KahlerModel(4, 5.0)
        res = newton_solve(m, build_dirac_rhs(2.5, eps, m), neutral())
        assert res.converged, res.message
        assert abs(res.diagnostics.mass - 5.0**4) <= 1e-9 * 5.0**4

    @pytest.mark.parametrize("t0", [7 / 20, 0.05 * 7])
    def test_warm_step_converges_for_both_spellings_of_t(self, model_n2, t0):
        rhs = build_dirac_rhs(1.5, 1e-3, model_n2)
        trace, base = continuity_in_t(model_n2, rhs, magnifying(t0), t0)
        assert trace.verdict == "reached_target"
        res = newton_solve(model_n2, rhs, magnifying(0.4), start=base.phi)
        assert res.converged, res.message

    @pytest.mark.parametrize("t", np.linspace(0.8194, 0.8906, 8).round(4).tolist())
    def test_n2_near_mass_bound_reaches_target(self, model_n2, t):
        rhs = build_dirac_rhs(2.7, 0.1, model_n2)
        trace, res = continuity_in_t(model_n2, rhs, magnifying(t), t)
        assert trace.verdict == "reached_target", res.message
        assert res.u.is_kahler()


class TestSweep:
    EPS_LIST = (1e-1, 1e-2, 1e-3, 1e-4)

    def test_neutral_average_stays_bounded(self, model_n1):
        trace, _ = sweep_epsilon(model_n1, 1.0, neutral(), 0.0, self.EPS_LIST)
        avgs = np.array([rec.diagnostics.avg_phi for rec in trace.entries])
        assert np.all([rec.converged for rec in trace.entries])
        spread = np.max(np.abs(avgs - avgs.mean()))
        assert spread <= 0.1 * max(1.0, np.abs(avgs.mean()))

    def test_magnifying_average_increases(self, model_n1):
        trace, _ = sweep_epsilon(model_n1, 1.8, magnifying(0.2), 0.2, self.EPS_LIST)
        avgs = [rec.diagnostics.avg_phi for rec in trace.entries]
        assert all(rec.converged for rec in trace.entries)
        assert all(b > a for a, b in zip(avgs, avgs[1:]))

    def test_zero_pole_mass_is_inert(self, model_n1):
        trace, _ = sweep_epsilon(model_n1, 0.0, magnifying(0.2), 0.2, self.EPS_LIST)
        for rec in trace.entries:
            assert abs(rec.diagnostics.sup_phi) <= 1e-9
            assert abs(rec.diagnostics.avg_phi) <= 1e-9

    def test_eps_list_must_decrease(self, model_n1):
        with pytest.raises(ConfigurationError):
            sweep_epsilon(model_n1, 1.0, neutral(), 0.0, [1e-2, 1e-1])

    @pytest.mark.parametrize("eps_list", [[np.inf, 1e-2], [1e-1, np.nan]])
    def test_eps_list_must_be_finite(self, model_n1, eps_list):
        # both pass the ordering check: nan compares false to everything
        with pytest.raises(ConfigurationError, match=r"eps\[\d\] must be finite"):
            sweep_epsilon(model_n1, 1.0, magnifying(0.3), 0.3, eps_list)

    def test_time_zero_is_the_neutral_family(self, model_n1):
        # at rate 0 each member is one quadrature, whatever the kind's name
        trace, results = sweep_epsilon(model_n1, 1.8, magnifying(0.0), 0.0, self.EPS_LIST)
        _, neutral_results = sweep_epsilon(model_n1, 1.8, neutral(), 0.0, self.EPS_LIST)
        assert trace.verdict != "barrier"
        for res, ref in zip(results, neutral_results):
            assert res.converged and res.iterations == 0
            assert np.array_equal(res.phi, ref.phi)

    def test_empty_eps_list_rejected(self, model_n1):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            sweep_epsilon(model_n1, 1.0, magnifying(0.3), 0.3, [])

    def test_tau0_must_match_kind_time(self, model_n1):
        with pytest.raises(ConfigurationError):
            sweep_epsilon(model_n1, 1.8, magnifying(0.2), 0.7, self.EPS_LIST)

    def test_divisor_family_does_not_blow_up(self, model_n1):
        # the fractional pole satisfies the curvature lower bound but its
        # amplifying averages stay bounded: the pole is too weak to drive
        # the level. The point-mass family shows the opposite pairing.
        from radialma import check_lower_bound
        avgs = []
        for eps in self.EPS_LIST:
            rhs = build_divisor_rhs(0.5, eps, model_n1)
            assert check_lower_bound(rhs).eta > 0.0
            trace, res = continuity_in_t(model_n1, rhs, magnifying(0.3), 0.3)
            assert trace.verdict == "reached_target"
            avgs.append(res.diagnostics.avg_phi)
        assert max(avgs) < 5.0
        assert abs(avgs[-1] - avgs[-2]) < 0.1 * abs(avgs[-1])

    def test_blowup_verdict_at_configured_threshold(self, model_n1):
        # the amplifying averages rise from ~5.8 to ~15 over one decade,
        # more than the unit step of the family blow-up rule
        trace, _ = sweep_epsilon(model_n1, 1.8, magnifying(0.2), 0.2,
                                 (1e-1, 1e-2))
        assert trace.verdict == "average_blowup"

    def test_converging_reducing_averages_are_not_blowup(self, model_n1):
        # the reducing averages rise but level off (~2.7, 5.1, 6.0, 6.4):
        # their mean step exceeds one unit, their last steps do not
        trace, _ = sweep_epsilon(model_n1, 1.8, reducing(0.3), 0.3, self.EPS_LIST)
        assert all(rec.converged for rec in trace.entries)
        assert trace.verdict == "reached_target"

    def test_family_warm_starts_dilate(self, model_n1, monkeypatch):
        # above the stalk threshold n/d a level shift alone does not carry a
        # member to the next eps; the dilated start does, so only the first
        # member continues in t from its neutral base. The warm starts take
        # 8, 6 and 6 iterations; level-shifted alone, 13 each.
        kind = magnifying(0.8)
        continued = []

        def counting(model, rhs, *args):
            continued.append(rhs.epsilon)
            return continuity_in_t(model, rhs, *args)

        monkeypatch.setattr(solver, "continuity_in_t", counting)
        _, results = sweep_epsilon(model_n1, 1.8, kind, kind.t, self.EPS_LIST)
        assert continued == [self.EPS_LIST[0]]
        assert all(res.converged and res.iterations <= 10 for res in results[1:])
        for res in results:
            _, alone = continuity_in_t(model_n1, res.rhs, kind, kind.t)
            assert np.max(np.abs(res.phi - alone.phi)) <= 1e-8

    @pytest.mark.parametrize("kind", [magnifying(0.2), neutral()])
    def test_results_record_their_members(self, model_n1, kind):
        # each result carries the member it solved: the model's own family
        _, results = sweep_epsilon(model_n1, 1.8, kind, kind.t, self.EPS_LIST)
        for eps, res in zip(self.EPS_LIST, results):
            assert res.rhs is build_dirac_rhs(1.8, eps, model_n1)

    def test_results_record_built_members(self, model_n1):
        _, results = sweep_epsilon(
            model_n1, 0.0, magnifying(0.3), 0.3, self.EPS_LIST,
            rhs_builder=lambda eps: build_divisor_rhs(0.5, eps, model_n1))
        for eps, res in zip(self.EPS_LIST, results):
            assert res.rhs is build_divisor_rhs(0.5, eps, model_n1)

    def test_n2_far_left_tail_stays_kahler(self, model_n2):
        # gamma close to d = 3 at tau = 0.8: the flat far-left tail of the
        # eps = 0.1 member, where the slopes of u vanish, must carry no noise
        # that breaks u'' positivity
        trace, results = sweep_epsilon(model_n2, 2.7, magnifying(0.8), 0.8, (1e-1, 1e-2))
        assert trace.verdict != "barrier"
        assert all(res.converged and res.u.is_kahler() for res in results)

    def test_deterministic_rerun(self, model_n1):
        t1, _ = sweep_epsilon(model_n1, 1.2, magnifying(0.2), 0.2, (1e-2, 1e-3))
        t2, _ = sweep_epsilon(model_n1, 1.2, magnifying(0.2), 0.2, (1e-2, 1e-3))
        for a, b in zip(t1.entries, t2.entries):
            assert a.diagnostics.avg_phi == b.diagnostics.avg_phi
            assert a.diagnostics.lelong.value == b.diagnostics.lelong.value


class TestDilation:
    GRID = SGrid(-40.0, 40.0, 2561)  # h = 1/32: nodes and whole-step shifts are exact

    def test_identity_without_a_shift(self, model_n1):
        phi = gaussian_bump(model_n1.grid)
        dirac = build_dirac_rhs(1.8, 1e-2, model_n1)
        for prev, rhs in [(constant_rhs(model_n1), dirac),
                          (dirac, build_divisor_rhs(0.5, 1e-3, model_n1)),
                          (dirac, build_dirac_rhs(1.0, 1e-2, model_n1))]:
            assert _dilated(phi, model_n1, prev, rhs) is phi

    def test_whole_step_shift_resamples_nodes(self):
        m = KahlerModel(1, 2.0, self.GRID)
        h, psi = m.grid.h, m.psi.values
        phi = gaussian_bump(m.grid, center=-5.0) + 0.1 * np.tanh(m.grid.nodes)
        rhs = build_dirac_rhs(1.8, 1e-2, m)
        steps = 16
        prev, new = replace(rhs, pole_anchor=-8.0), replace(rhs, pole_anchor=-8.0 - steps * h)
        moved = _dilated(phi, m, prev, new)
        u = psi + phi
        assert np.array_equal(moved[:-steps], u[steps:] - psi[:-steps])
        beyond = u[-1] + (u[-1] - u[-2]) * np.arange(1, steps + 1)
        np.testing.assert_allclose(moved[-steps:], beyond - psi[-steps:], rtol=0, atol=1e-12)


class TestDiagnostics:
    def test_ordering_invariants(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, neutral())
        d = res.diagnostics
        assert d.inf_phi <= d.avg_phi <= d.sup_phi
        assert d.lelong.value >= 0.0

    def test_pole_anchor_used_for_singular_families(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        u = neutral_oracle(model_n1, rhs)
        phi = u.values - model_n1.psi.values
        anchored = diagnostics_for(phi, model_n1, rhs)
        plain = diagnostics_for(phi, model_n1, None)
        # the left-edge secant cannot see the pole of a finite mollifier
        assert plain.lelong.value < 0.1
        assert anchored.lelong.value == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("points", [64, 9])
    def test_smooth_secant_widens_to_4h_on_coarse_grids(self, points):
        # on [-40, 40] with 64 nodes or fewer, 4h exceeds LELONG_WINDOW = 5
        m = KahlerModel(1, 2.0, SGrid(-40.0, 40.0, points))
        rhs = constant_rhs(m)
        phi = newton_solve(m, rhs, magnifying(0.5)).phi
        d = diagnostics_for(phi, m, rhs)
        assert d.lelong.window_width == 4.0 * m.grid.h > LELONG_WINDOW
        assert d == diagnostics_per_call(phi, m, rhs)

    def test_fields_are_python_scalars(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        d = newton_solve(model_n1, rhs, magnifying(0.4)).diagnostics
        assert [type(getattr(d, f.name)) for f in fields(d)] == \
            [float, float, float, LelongEstimate, float]
        assert {type(getattr(d.lelong, f.name)) for f in fields(d.lelong)} == {float}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_rejected(self, model_n1, bad):
        phi = np.zeros(model_n1.grid.points)
        phi[1234] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            diagnostics_for(phi, model_n1, build_dirac_rhs(1.0, 1e-3, model_n1))

    @pytest.mark.parametrize("gamma,eps", [(0.0, 1e-3), (1.0, 1e-1), (1.8, 1e-3), (1.8, 1e-4)])
    def test_same_as_through_the_whole_potential(self, model_n1, gamma, eps):
        # the pole slope read at the secant nodes is the same double as the
        # secant of the whole u = psi + phi, and the mass read from the two
        # end fluxes the same as from the whole array of half-node slopes
        rhs = build_dirac_rhs(gamma, eps, model_n1)
        phi = newton_solve(model_n1, rhs, magnifying(0.4)).phi
        for family in (rhs, None):
            d = diagnostics_for(phi, model_n1, family)
            assert d == diagnostics_per_call(phi, model_n1, family)
            assert d.lelong == pole_lelong(phi, model_n1, family)

    def test_point_mass_solves_carry_the_grid_mass(self):
        # the printed mass is the solver's own: within 2e-13 relative of the
        # grid's mass W_last^n - (W_0 + offset)^n at n = 1..3 (4.4e-14 at
        # worst; differencing psi + phi at the end nodes missed by 8.7e-13)
        for n, kind, frac, eps in itertools.product(
                (1, 2, 3), (magnifying, reducing), (0.3, 0.9), (1e-1, 1e-2, 1e-3)):
            m = KahlerModel(n, n + 1.0)
            rhs = build_dirac_rhs(frac * m.degree, eps, m)
            _, res = continuity_in_t(m, rhs, kind(0.5), 0.5)
            assert res.converged
            W = m.psi_slopes
            want = W[-1] ** n - (W[0] + rhs.left_flux_offset) ** n
            assert abs(res.diagnostics.mass - want) <= 2e-13 * want, (n, kind, frac, eps)

    @pytest.mark.parametrize("points", [1, 10])
    def test_wrong_length_phi_rejected(self, model_n1, points):
        # a short array would broadcast against psi or be read in part
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        phi = np.full(points, 0.5)
        with pytest.raises(ConfigurationError):
            pole_lelong(phi, model_n1, rhs)
        with pytest.raises(ConfigurationError):
            bootstrap_lelong_bound(phi, 0.2, 1.0, 5.0, model_n1)
