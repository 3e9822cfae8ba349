"""Newton solver, neutral oracle, continuity drivers, sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
    default_model,
    magnifying,
    mass,
    neutral,
    neutral_oracle,
    newton_solve,
    reducing,
    residual,
    sweep_epsilon,
)
from radialma import solver
from radialma.rhs import xi_eps_d1
from radialma.solver import (
    _assemble_jacobian,
    _dilated,
    _solve_newton_step,
    diagnostics_for,
    pole_slope_sample,
    residual_from_perturbation,
)

from conftest import gaussian_bump, jacobian_matvec
from oracles import continuum_neutral_potential


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
        r = residual(model_n1.psi, model_n1, rhs, EquationKind(kind, t))
        assert np.max(np.abs(r)) == 0.0

    def test_neutral_n1_is_linear_in_curvature(self, model_n1):
        # for n = 1 the neutral residual is u'' - F psi'': adding a bump
        # changes the residual by exactly the bump's second difference
        rhs = build_dirac_rhs(0.7, 1e-2, model_n1)
        g = model_n1.grid
        bump = gaussian_bump(g, 0.2)
        r0 = residual_from_perturbation(np.zeros(g.points), model_n1, rhs, neutral()).residual
        r1 = residual_from_perturbation(bump, model_n1, rhs, neutral()).residual
        from radialma.grid import second_derivative
        expected = second_derivative(bump, g.h)
        assert np.max(np.abs((r1 - r0)[1:-1] - expected[1:-1])) < 1e-11

    def test_constant_shift_magnifying_closed_form(self, model_n1):
        # phi = c: interior residual is W (1 - e^{-tc} F), here F = 1
        rhs = constant_rhs(model_n1)
        c, t = 0.8, 0.5
        phi = np.full(model_n1.grid.points, c)
        r = residual_from_perturbation(phi, model_n1, rhs, magnifying(t)).residual
        w = model_n1.weight[1:-1]
        expected = w * (1.0 - np.exp(-t * c))
        assert np.max(np.abs(r[1:-1] - expected)) < 1e-14
        # sign check: positive wherever the weight is resolvable
        bulk = np.abs(model_n1.grid.nodes[1:-1]) <= 20.0
        assert np.all(r[1:-1][bulk] > 0.0)
        assert np.min(r[1:-1]) > -1e-9
        # the u-entry point agrees up to the representation rounding of u
        r_u = residual(model_n1.psi.values + c, model_n1, rhs, magnifying(t))
        assert np.max(np.abs(r_u[1:-1] - expected)) < 1e-9

    def test_linearization_matches_finite_differences(self, model_n1):
        # acceptance: Jacobian consistency over 10 random smooth directions,
        # probed in the perturbation variable (the solver's unknown)
        rng = np.random.default_rng(42)
        rhs = build_dirac_rhs(1.0, 1e-2, model_n1)
        kind = magnifying(0.3)
        g = model_n1.grid
        phi0 = gaussian_bump(g, 0.1)
        jac = _assemble_jacobian(residual_from_perturbation(phi0, model_n1, rhs, kind),
                                 model_n1, rhs, kind)
        delta = 1e-5
        for _ in range(10):
            coeffs = rng.normal(size=6)
            v = sum(c * np.sin((k + 3) * np.pi * (g.nodes - g.s_min) / 80.0)
                    for k, c in enumerate(coeffs))
            v *= np.exp(-g.nodes**2 / 200.0)
            fd = (residual_from_perturbation(phi0 + delta * v, model_n1, rhs, kind).residual
                  - residual_from_perturbation(phi0 - delta * v, model_n1, rhs, kind).residual
                  ) / (2 * delta)
            lin = jacobian_matvec(jac, v)[1:-1]
            denom = np.max(np.abs(lin))
            assert np.max(np.abs(fd[1:-1] - lin)) / denom < 1e-6


def _dense_jacobian(dl, d, du):
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


JACOBIAN_N = pytest.mark.parametrize("n", [1, 2, 3])
JACOBIAN_KINDS = pytest.mark.parametrize(
    "kind,t", [("reducing", 0.4), ("magnifying", 0.4)])


class TestJacobian:
    # a dirac RHS on a small grid, at a perturbed state, for every n and
    # time-dependent kind (a rate-0 kind is solved by quadrature and has no
    # Jacobian)
    GRID = SGrid(-16.0, 16.0, 41)

    def _state(self, n, kind, t):
        m = KahlerModel(n, n + 1.0, self.GRID)
        rhs = build_dirac_rhs(0.5 * (n + 1.0), 1e-1, m)
        phi = gaussian_bump(m.grid, 0.1)
        eq = EquationKind(kind, t)
        ev = residual_from_perturbation(phi, m, rhs, eq)
        return m, rhs, eq, phi, _assemble_jacobian(ev, m, rhs, eq)

    @JACOBIAN_N
    @JACOBIAN_KINDS
    def test_assembly_matches_finite_differences(self, n, kind, t):
        # every row, the two flux boundary rows included. The five-point
        # difference is exact on the polynomial part of the residual (degree
        # n <= 3 in phi), which matters in the far left tail where a step of
        # delta / h is comparable to u' itself.
        m, rhs, kind, phi, jac = self._state(n, kind, t)
        J = _dense_jacobian(*jac)
        delta = 1e-6

        def res(j, k):
            e = np.zeros(phi.size)
            e[j] = k * delta
            return residual_from_perturbation(phi + e, m, rhs, kind).residual

        fd = np.empty_like(J)
        for j in range(phi.size):
            fd[:, j] = (8.0 * (res(j, 1) - res(j, -1)) - (res(j, 2) - res(j, -2))
                        ) / (12.0 * delta)
        scale = np.max(np.abs(J), axis=1, keepdims=True)
        assert np.max(np.abs(fd - J) / scale) < 1e-6

    @JACOBIAN_N
    @JACOBIAN_KINDS
    def test_step_matches_dense_solve(self, n, kind, t):
        # against the row-equilibrated dense system: the unequilibrated
        # dense LU loses digits to the far tails' tiny conductances at n = 3
        m, rhs, kind, phi, jac = self._state(n, kind, t)
        J = _dense_jacobian(*jac)
        r = residual_from_perturbation(phi, m, rhs, kind).residual
        v = _solve_newton_step(*jac, r)
        rs = np.max(np.abs(J), axis=1)
        expected = np.linalg.solve(J / rs[:, None], -r / rs)
        assert np.max(np.abs(v - expected)) <= 1e-10 * np.max(np.abs(expected))

    @settings(derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 3),
           kind=st.sampled_from(["reducing", "magnifying"]),
           t=st.floats(0.01, 0.95, exclude_max=True),
           amplitude=st.floats(-0.5, 0.5),
           center=st.floats(-5.0, 5.0),
           width=st.floats(1.0, 4.0),
           v_center=st.floats(-5.0, 5.0))
    def test_matvec_matches_finite_differences(self, n, kind, t, amplitude, center,
                                               width, v_center):
        # J v from the evaluation's own terms against a centred difference of
        # the residual, at a smooth bump phi, along a smooth bump direction
        m = KahlerModel(n, n + 1.0, self.GRID)
        rhs = build_dirac_rhs(0.5 * (n + 1.0), 1e-1, m)
        eq = EquationKind(kind, t)
        phi = gaussian_bump(m.grid, amplitude, center, width)
        v = gaussian_bump(m.grid, 1.0, v_center, 2.0)
        jv = jacobian_matvec(_assemble_jacobian(residual_from_perturbation(phi, m, rhs, eq),
                                                m, rhs, eq), v)
        delta = 1e-6
        fd = (residual_from_perturbation(phi + delta * v, m, rhs, eq).residual
              - residual_from_perturbation(phi - delta * v, m, rhs, eq).residual
              ) / (2 * delta)
        assert np.max(np.abs(fd - jv)) <= 1e-6 * np.max(np.abs(jv))


class TestFixedPoints:
    @pytest.mark.parametrize("n,d", [(1, 2.0), (2, 3.0)])
    @pytest.mark.parametrize("kind,t", ALL_KINDS_T)
    def test_unit_rhs_fixed_point_from_perturbed_start(self, n, d, kind, t):
        m = default_model(n, d)
        rhs = constant_rhs(m)
        cfg = SolveConfig(newton_tol=1e-13, max_iters=50,
                          initial_guess=gaussian_bump(m.grid, 0.3))
        res = newton_solve(m, rhs, EquationKind(kind, t), cfg)
        assert res.converged
        assert res.iterations <= 25
        assert np.max(np.abs(res.phi)) <= 1e-9

    def test_sin_bump_start_n1(self, model_n1):
        # full-domain sine perturbation, the classical smoke case for n = 1
        g = model_n1.grid
        bump = 0.3 * np.sin(np.pi * (g.nodes - g.s_min) / (g.s_max - g.s_min))
        cfg = SolveConfig(initial_guess=bump)
        res = newton_solve(model_n1, constant_rhs(model_n1), magnifying(0.5), cfg)
        assert res.converged and np.max(np.abs(res.phi)) <= 1e-9
        assert res.residual_norm <= 1e-10


class TestNeutralOracle:
    def test_unit_rhs_reproduces_reference(self, model_n1, model_n2):
        for m in (model_n1, model_n2):
            u = neutral_oracle(m, constant_rhs(m))
            assert np.max(np.abs(u.values - m.psi.values)) < 1e-10

    def test_left_slope_is_pole_mass_in_the_limit(self, model_n1):
        # as the mollifier shrinks the oracle's slope above the layer
        # approaches the prescribed pole mass (the smooth-part contamination
        # at the sample point shrinks with the layer position)
        gamma = 1.2
        for eps, rel in ((1e-2, 0.03), (1e-3, 0.01), (1e-4, 0.01)):
            rhs = build_dirac_rhs(gamma, eps, model_n1)
            u = neutral_oracle(model_n1, rhs)
            nu = pole_slope_sample(u.values - model_n1.psi.values, model_n1, rhs)
            assert nu == pytest.approx(gamma, rel=rel)

    # gamma = d/2 for n in 1..4 (n = 4 only at eps = 1e-1: below it the
    # n = 4 residual sits on the rounding floor of newton_tol), and
    # gamma in {0.3, 0.9} d for n <= 2
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
        m = default_model(n, d)
        rhs = build_dirac_rhs(gamma, eps, m)
        # the point-mass cell masses are nonnegative: adding them to the
        # smooth part never lowers a density value
        assert np.all(rhs.density >= rhs.c_smooth * m.weight)
        res = newton_solve(m, rhs, neutral(),
                           SolveConfig(initial_guess=gaussian_bump(m.grid)))
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
        m = default_model(n, n + 1.0)
        rhs = constant_rhs(m) if eps is None else build_dirac_rhs(1.0, eps, m)
        assert abs(residual(neutral_oracle(m, rhs), m, rhs, neutral())[0]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_left_flux_row_solved_at_zero_slope(self, n):
        # psi's first half-node slope underflows at s_min = -800, so the
        # first slope of u is 0 and the left row vanishes exactly
        m = KahlerModel(n, n + 1.0, SGrid(-800.0, 40.0, 8001))
        rhs = constant_rhs(m)
        u = neutral_oracle(m, rhs)
        assert u.values[1] == u.values[0]
        assert residual(u, m, rhs, neutral())[0] == 0.0

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
                return gamma**n * xi_eps_d1(s, eps) ** n + c * m.psi_prime(s) ** n

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
        from radialma.rhs import xi_eps_d2

        m = model_n1
        gamma, eps, t = 1.0, 1e-3, 0.5
        rhs = build_dirac_rhs(gamma, eps, m)
        c = rhs.c_smooth

        def reduced_density(s):
            return gamma * xi_eps_d2(s, eps) + c * m.psi_second(s)

        def psi_of(s):
            return m.degree * np.logaddexp(0.0, s)

        def ode(s, y):
            u, p = y
            rate = np.clip(t * (u - psi_of(s)), -700.0, 700.0)
            return [p, np.exp(rate) * reduced_density(s)]

        smin, smax = m.grid.s_min, m.grid.s_max
        beta = float(m.psi_prime(smin))
        target = float(m.psi_prime(smax))

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

    def test_max_iters_stop_gives_reason(self, model_n1):
        rhs = build_dirac_rhs(1.8, 1e-3, model_n1)
        res = newton_solve(model_n1, rhs, magnifying(0.5), SolveConfig(max_iters=1))
        assert not res.converged and res.iterations == 1
        assert res.message.startswith("max_iters reached")


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
        (1, "magnifying", 8, 2), (1, "reducing", 8, 2),
        (2, "magnifying", 14, 3), (2, "reducing", 7, 2)])
    def test_work_counts(self, request, n, kind, iterations, steps):
        # Newton iterations over the trace and accepted steps, gamma = 1,
        # eps = 1e-3, t = 0.2: a Jacobian that lags the iterate loses
        # quadratic convergence and needs more of both
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
        # stops at t ~ 0.042 on the rounding floor of newton_tol
        (3, 2.0, 1e-3, 0.5, None, None)])
    def test_returns_last_attempted_solve(self, n, gamma, eps, t, cfg, verdict):
        m = default_model(n, n + 1.0)
        rhs = build_dirac_rhs(gamma, eps, m)
        trace, res = continuity_in_t(m, rhs, magnifying(t), t, cfg)
        assert verdict is None or trace.verdict == verdict
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
        guess = solver._mass_balanced_shift(step.phi, rhs, at)
        res = newton_solve(m, rhs, at, SolveConfig(initial_guess=guess))
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
        m = default_model(n, n + 1.0)
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
        # member continues in t from its neutral base
        kind = magnifying(0.8)
        rhs_list = [build_dirac_rhs(1.8, eps, model_n1) for eps in self.EPS_LIST]
        continued = []

        def counting(model, rhs, *args):
            continued.append(rhs.epsilon)
            return continuity_in_t(model, rhs, *args)

        monkeypatch.setattr(solver, "continuity_in_t", counting)
        results = solver.solve_family(model_n1, kind, rhs_list)
        assert continued == [self.EPS_LIST[0]]
        assert all(res.converged and res.iterations <= 3 for res in results[1:])
        for rhs, res in zip(rhs_list, results):
            _, alone = continuity_in_t(model_n1, rhs, kind, kind.t)
            assert np.max(np.abs(res.phi - alone.phi)) <= 1e-8

    def test_n2_far_left_tail_stays_kahler(self, model_n2):
        # gamma close to d = 3 at tau = 0.8: the flat far-left tail of the
        # eps = 0.1 member, where the conductances w^{n-1} / h^2 vanish, must
        # carry no Newton noise that breaks u'' positivity
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

    @pytest.mark.parametrize("points", [1, 10])
    def test_wrong_length_phi_rejected(self, model_n1, points):
        # a short array would broadcast against psi or be read in part
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        phi = np.full(points, 0.5)
        with pytest.raises(ConfigurationError):
            pole_slope_sample(phi, model_n1, rhs)
        with pytest.raises(ConfigurationError):
            bootstrap_lelong_bound(phi, 0.2, 1.0, 5.0, model_n1)
