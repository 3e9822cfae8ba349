"""Grid calculus, reference potential, densities, averages, pole estimates."""

import warnings

import numpy as np
import pytest

from radialma import (
    ConfigurationError,
    DegenerateMetricError,
    RadialPotential,
    SGrid,
    average,
    build_dirac_rhs,
    default_model,
    dominates,
    fubini_study_potential,
    lelong_estimate,
    ma_density,
    mass,
    neutral_oracle,
    ricci_potential,
)
from radialma.geometry import expit, ma_density_formula

from oracles import complex_hessian_det, weighted_average_quad


class TestExpit:
    def test_agrees_with_scipy(self):
        from scipy.special import expit as scipy_expit
        x = np.concatenate([np.linspace(-800.0, 800.0, 1600001), [np.inf, -np.inf]])
        ours, ref = expit(x), scipy_expit(x)
        # the two differ only through numpy's and libm's exp: at most 4 ulp,
        # near x = -37 where 1 + e^37 rounds to the spacing of 1e16
        tiny = np.finfo(float).tiny
        assert np.max(np.abs(ours - ref) / np.maximum(ref, tiny)) <= 1e-15
        assert np.mean(ours == ref) >= 0.95
        assert expit(np.inf) == 1.0 and expit(-np.inf) == 0.0
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0

    def test_scalars(self):
        from scipy.special import expit as scipy_expit
        for v in (-37.0, -1.5, 0.0, 0.25, 3, 40.0):
            assert isinstance(expit(v), np.float64)
            assert expit(v) == pytest.approx(scipy_expit(v), rel=1e-15)
        assert expit(0.0) == 0.5

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expit(np.array([-1000.0, -710.0, 0.0, 710.0]))
            expit(-1e308)


class TestGrid:
    def test_invalid_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            SGrid(1.0, -1.0, 100)
        with pytest.raises(ConfigurationError):
            SGrid(-1.0, 1.0, 2)

    def test_spacing(self):
        g = SGrid(-40.0, 40.0, 4001)
        assert g.h == pytest.approx(0.02)
        assert g.nodes[0] == -40.0 and g.nodes[-1] == 40.0

    def test_potential_shape_checked(self):
        g = SGrid(-1.0, 1.0, 11)
        with pytest.raises(ConfigurationError):
            RadialPotential(g, np.zeros(10), 1)


class TestFubiniStudy:
    def test_value_at_origin(self, model_n1):
        # psi(0) = d log 2 for d = 2
        i = model_n1.grid.index_of(0.0)
        assert model_n1.psi.values[i] == pytest.approx(2.0 * np.log(2.0), abs=1e-14)

    def test_right_asymptotic_slope_is_degree(self):
        for n, d in [(1, 2.0), (2, 3.0), (3, 7.5)]:
            m = default_model(n, d)
            assert m.psi.d1[-1] == pytest.approx(d, abs=1e-9)
            assert m.psi.d1[0] == pytest.approx(0.0, abs=1e-9)

    def test_midpoint_slope_is_half_degree(self, model_n1):
        assert model_n1.psi_prime(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_degree_must_be_positive(self, model_n1):
        with pytest.raises(ConfigurationError):
            fubini_study_potential(1, -1.0, model_n1.grid)

    def test_reference_is_kahler(self, model_n1, model_n2):
        assert model_n1.psi.is_kahler()
        assert model_n2.psi.is_kahler()


class TestMaDensity:
    def test_affine_potential_has_zero_density(self, model_n1):
        g = model_n1.grid
        u = RadialPotential(g, 0.7 * g.nodes + 3.0, 1)
        # formula path: exactly zero for vanishing curvature
        assert ma_density_formula(1, g.nodes, np.full(g.points, 0.7), 0.0) == pytest.approx(0.0)
        # grid path: curvature is zero to rounding; the density inherits it
        # wherever the e^{-ns} factor does not amplify the rounding floor
        assert np.max(np.abs(u.d2)) < u.positivity_floor()
        right = g.nodes[1:-1] >= 0.0
        assert np.max(np.abs(ma_density(u)[1:-1][right])) < 1e-10

    def test_fs_density_at_origin_n1(self, model_n1):
        # sympy oracle: e^{-s} d^2/ds^2 [2 log(1+e^s)] = 2/(1+e^s)^2 -> 1/2 at s=0
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        expr = sympy.exp(-s) * sympy.diff(2 * sympy.log(1 + sympy.exp(s)), s, 2)
        assert float(expr.subs(s, 0)) == pytest.approx(0.5)
        i = model_n1.grid.index_of(0.0)
        assert ma_density(model_n1.psi)[i] == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("n,d", [(1, 2.0), (2, 3.0)])
    def test_reduction_identity_against_complex_hessian(self, n, d):
        # the reduced formula against direct multidimensional finite
        # differences of det dd-bar of u(log|z|^2), at random sample points
        rng = np.random.default_rng(20240611)
        gammas = [0.0, 0.7]
        for _ in range(50):
            g = rng.choice(gammas)
            eps = 10.0 ** rng.uniform(-1.5, -0.5)

            def u_of_s(s):
                return d * np.logaddexp(0.0, s) + g * np.logaddexp(s, 2 * np.log(eps))

            def func(x):
                r2 = np.sum(x**2)
                return u_of_s(np.log(r2))

            z = rng.uniform(0.4, 1.4, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            s0 = float(np.log(np.sum(np.abs(z) ** 2)))
            sig = 1.0 / (1.0 + np.exp(-s0))
            xs = 1.0 / (1.0 + np.exp(-(s0 - 2 * np.log(eps))))
            du = d * sig + g * xs
            ddu = d * sig * (1 - sig) + g * xs * (1 - xs)
            expected = ma_density_formula(n, s0, du, ddu)
            fd = complex_hessian_det(func, z)
            assert fd == pytest.approx(expected, rel=1e-6)


class TestMass:
    def test_reference_mass_is_degree_power(self, model_n1, model_n2):
        assert mass(model_n1.psi) == pytest.approx(2.0, abs=1e-9)
        assert mass(model_n2.psi) == pytest.approx(9.0, abs=1e-9)

    def test_constant_shift_preserves_mass(self, model_n1):
        shifted = model_n1.psi.shifted(17.0)
        assert mass(shifted) == mass(model_n1.psi)

    def test_two_slope_potential(self, model_n1):
        # left slope gamma, right slope d: mass d^n - gamma^n exactly
        g = model_n1.grid
        gamma, d = 0.6, 2.0
        u = RadialPotential(g, gamma * g.nodes + (d - gamma) * np.logaddexp(0, g.nodes), 1)
        assert mass(u) == pytest.approx(d - gamma, abs=1e-9)


def resolvable_curvature(u):
    """Contiguous interior range where second differences resolve the
    curvature well below 1e-8, so affineness checks are meaningful. The
    rounding floor scales with the local magnitude of the values; the right
    tail (large values, exponentially small curvature) falls out first."""
    eps = np.finfo(float).eps
    floor = 4.0 * eps * (np.abs(u.values) + np.finfo(float).tiny) / u.grid.h**2
    ok = u.d2[1:-1] >= 1e10 * floor[1:-1]
    stop = int(np.argmin(ok)) if not ok.all() else ok.size
    out = np.zeros_like(ok)
    out[:stop] = True
    # skip the boundary layer where the curvature stencil falls back to
    # second order
    out[:2] = False
    out[-2:] = False
    return out


class TestRicci:
    def test_fs_n1_is_einstein_with_factor_one(self, model_n1):
        # sympy oracle: det g = 1/(1+e^s)^2 up to the degree constant, so the
        # curvature potential differs from psi by an affine function
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        rho = -sympy.log(sympy.exp(-s) * sympy.diff(2 * sympy.log(1 + sympy.exp(s)), s, 2))
        diff = sympy.simplify(rho - 2 * sympy.log(1 + sympy.exp(s)))
        assert sympy.diff(diff, s, 2).simplify() == 0

        rho_num = ricci_potential(model_n1.psi)
        mask = resolvable_curvature(model_n1.psi)
        gap = (rho_num - model_n1.psi.values[1:-1])[mask]
        assert gap.size > 2000
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_fs_curvature_proportional_to_reference(self, n):
        # curvature form of FS(d) equals ((n+1)/d) times its Kahler form
        d = n + 2.5
        m = default_model(n, d)
        rho = ricci_potential(m.psi)
        gap = (rho - ((n + 1) / d) * m.psi.values[1:-1])[resolvable_curvature(m.psi)]
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_anticanonical_einstein_residual(self, n):
        m = default_model(n, float(n + 1))
        rho = ricci_potential(m.psi)
        gap = (rho - m.psi.values[1:-1])[resolvable_curvature(m.psi)]
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    def test_degenerate_input_names_first_node(self, model_n1):
        g = model_n1.grid
        vals = model_n1.psi.values - 5e-2 * np.exp(-((g.nodes - 3.0) ** 2))
        with pytest.raises(DegenerateMetricError) as err:
            ricci_potential(RadialPotential(g, vals, 1))
        assert err.value.node is not None
        assert "node" in str(err.value)


class TestDominates:
    def test_reflexive(self, model_n1):
        q = model_n1.psi.values
        assert dominates(q, q, model_n1.grid).holds

    def test_adding_reference_potential(self, model_n1):
        g = model_n1.grid
        p = model_n1.psi.values
        psi1 = np.logaddexp(0, g.nodes)
        assert dominates(p + 0.25 * psi1, p, g).holds
        rep = dominates(p - 0.25 * psi1, p, g)
        assert not rep.holds
        assert rep.first_violation is not None
        assert rep.failed_condition in ("slope", "curvature")

    def test_grid_mismatch_rejected(self, model_n1):
        with pytest.raises(ConfigurationError):
            dominates(np.zeros(11), np.zeros(11), model_n1.grid)


class TestAverage:
    def test_constant(self, model_n1):
        assert average(np.full(model_n1.grid.points, 3.25), model_n1) == 3.25

    def test_linearity_in_constants(self, model_n1):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=model_n1.grid.points)
        a = average(phi, model_n1)
        assert average(phi + 2.5, model_n1) == pytest.approx(a + 2.5, abs=5e-14)

    def test_odd_function_about_volume_median(self, model_n1):
        # the n=1 volume weight is symmetric about s = 0
        assert average(model_n1.grid.nodes, model_n1) == pytest.approx(0.0, abs=1e-10)

    def test_against_adaptive_quadrature(self, model_n1):
        m = model_n1
        psi1 = np.logaddexp(0, m.grid.nodes)
        expected = weighted_average_quad(
            lambda s: np.logaddexp(0, s),
            lambda s: m.volume_weight(np.asarray(s)),
            m.grid.s_min, m.grid.s_max)
        assert average(psi1, m) == pytest.approx(expected, abs=1e-8)


class TestLelong:
    def test_smooth_reference_has_no_pole(self, model_n1):
        est = lelong_estimate(model_n1.psi, window=5.0)
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_affine_left_slope_exact(self, model_n1):
        g = model_n1.grid
        nu0 = 0.735
        u = RadialPotential(g, nu0 * (g.nodes - g.s_min), 1)
        est = lelong_estimate(u, window=5.0)
        assert est.value == pytest.approx(nu0, abs=1e-13)
        assert est.sensitivity < 1e-13

    def test_window_too_small_rejected(self, model_n1):
        with pytest.raises(ConfigurationError):
            lelong_estimate(model_n1.psi, window=3 * model_n1.grid.h)

    def test_neutral_solution_with_submerged_pole(self, model_n1):
        # mollifier small enough that the pole layer sits below the cut:
        # the left-edge secant then reads the pole mass directly
        gamma = 1.0
        with pytest.warns(UserWarning, match="below the left truncation"):
            rhs = build_dirac_rhs(gamma, 1e-10, model_n1)
        u = neutral_oracle(model_n1, rhs)
        est = lelong_estimate(u, window=5.0)
        assert est.value == pytest.approx(gamma, rel=0.02)


class TestDiagnosticsInvariants:
    def test_average_between_extrema(self, model_n1):
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi = rng.normal(scale=2.0, size=model_n1.grid.points)
            a = average(phi, model_n1)
            assert phi.min() - 1e-12 <= a <= phi.max() + 1e-12
