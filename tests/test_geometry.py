"""Grid calculus, reference potential, densities, averages, pole estimates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConfigurationError,
    KahlerModel,
    RadialPotential,
    SGrid,
    average,
    build_dirac_rhs,
    constant_rhs,
    diagnostics_for,
    magnifying,
    neutral,
    neutral_oracle,
    newton_solve,
    pole_lelong,
)
from radialma.grid import (cell_masses, expit, first_violation, rounding_floor, softplus,
                           softplus_step)

from conftest import gaussian_bump
from oracles import (
    DegenerateMetricError,
    complex_hessian_det,
    ma_density_formula,
    ricci_potential,
    weighted_average_quad,
)



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


def test_softplus_step_is_the_step_of_softplus():
    # one closed form for the half-node slopes of psi and of xi_eps: the
    # difference softplus(x + h) - softplus(x), free of its cancellation,
    # increasing in x
    x = np.linspace(-60.0, 60.0, 12001)
    for h in (1e-3, 0.02, 1.0):
        step = softplus_step(x, h)
        np.testing.assert_allclose(step, softplus(x + h) - softplus(x), rtol=1e-9, atol=0)
        assert np.all(np.diff(step) >= 0.0)
    assert softplus_step(-800.0, 0.1) == 0.0 and softplus_step(800.0, 0.1) == pytest.approx(0.1)


class TestGrid:
    def test_invalid_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            SGrid(1.0, -1.0, 100)
        with pytest.raises(ConfigurationError):
            SGrid(-1.0, 1.0, 2)

    @pytest.mark.parametrize("points", [3, 4])
    def test_five_points_are_the_least(self, points):
        # the pole secant's window of 4h takes 5 nodes
        message = f"^points must be an integer >= 5, got {points}$"
        with pytest.raises(ConfigurationError, match=message):
            SGrid(-1.0, 1.0, points)
        assert SGrid(-1.0, 1.0, 5).points == 5

    def test_spacing(self):
        g = SGrid(-40.0, 40.0, 4001)
        assert g.h == pytest.approx(0.02)
        assert g.nodes[0] == -40.0 and g.nodes[-1] == 40.0

    def test_potential_shape_checked(self):
        g = SGrid(-1.0, 1.0, 11)
        with pytest.raises(ConfigurationError):
            RadialPotential(g, np.zeros(10), 1)

    def test_slopes_and_cell_masses(self):
        g = SGrid(0.0, 2.0, 5)
        vals = np.array([0.0, 0.5, 2.0, 4.5, 8.0])
        # slopes 1, 3, 5, 7; n = 1 is the central second difference, n = 2
        # the difference of squared slopes over 2h, one per interior node
        for n, density in ((1, [4.0, 4.0, 4.0]), (2, [8.0, 16.0, 24.0])):
            u = RadialPotential(g, vals, n)
            np.testing.assert_array_equal(u.slopes, [1.0, 3.0, 5.0, 7.0])
            np.testing.assert_array_equal(cell_masses(u.slopes, n, g.h), density)
            assert not u.slopes.flags.writeable

    def test_earliest_violation_wins(self):
        # u'' fails at node 3 (slope 1 then 0.5), u' at node 5 (the slope
        # from node 5 to node 6 is -1): the earlier node is reported
        u = RadialPotential(SGrid(0.0, 10.0, 11),
                            np.array([0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 3.0, 2.0, 3.0, 5.0, 8.0]), 1)
        w = u.slopes
        assert w[3] < w[2] and 0.0 < w[3] and w[5] < 0.0 <= np.min(w[:5])
        assert u.kahler_violation() == (3, "u''")
        assert not u.is_kahler()

    def test_negative_slope_is_reported_at_its_left_node(self):
        u = RadialPotential(SGrid(0.0, 4.0, 5), np.array([0.0, -1.0, -1.5, -1.75, -1.875]), 1)
        assert u.kahler_violation() == (0, "u'")

    def test_noise_below_the_rounding_floor_is_not_a_violation(self, model_n1):
        # raising node 100 (s = -38, where psi'' is 6e-17) by x floor h^2 / 2
        # lowers its second difference by x floor
        u = RadialPotential(model_n1.grid, model_n1.psi, 1)
        floor = rounding_floor(u.values, u.grid.h)
        raised = u.values.copy()
        raised[100] += 0.05 * floor * u.grid.h**2
        assert RadialPotential(u.grid, raised, 1).is_kahler()
        raised[100] += 0.5 * floor * u.grid.h**2
        assert RadialPotential(u.grid, raised, 1).kahler_violation() == (100, "u''")

    def test_slope_is_held_to_the_rounding_of_a_first_difference(self):
        # h = 0.1 and max|u| < 1: the floor is 16 eps / h^2 = 3.6e-13, and a
        # slope is held to floor h = 3.6e-14; the first slope, -1e-13, lies
        # between the two
        u = RadialPotential(SGrid(0.0, 0.4, 5), np.array([0.0, -1e-14, 0.1, 0.3, 0.6]), 1)
        floor, h = rounding_floor(u.values, u.grid.h), u.grid.h
        assert -floor < u.slopes[0] < -floor * h
        assert u.kahler_violation() == (0, "u'")

    def test_slope_failure_wins_a_tie(self):
        # slope 1 is negative (left node 1) and so is the difference of
        # slopes 0 and 1 (node 1)
        assert first_violation(np.array([1.0, -1.0, 2.0]), 0.0, 1.0) == (1, "slope")


class TestOnePositivityRule:
    @given(n=st.integers(1, 4), points=st.sampled_from([41, 401, 4001]),
           degree=st.floats(0.5, 6.0), a=st.floats(-1.0, 1.0),
           center=st.floats(-5.0, 5.0), width=st.floats(0.3, 5.0))
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_kahler_dominates_and_ricci_agree(self, n, points, degree, a, center, width):
        # u = psi + a bump is Kahler for some draws and not for others
        m = KahlerModel(n, degree, SGrid(-40.0, 40.0, points))
        u = RadialPotential(m.grid, m.psi + gaussian_bump(m.grid, a, center, width), n)
        node, which = u.kahler_violation()
        # ddbar(u - p) >= 0 for p = 0, read off the slopes of u - p
        p, h = 0 * u.values, m.grid.h
        floor = max(rounding_floor(u.values, h), rounding_floor(p, h))
        dominance_node, condition = first_violation(np.diff(u.values - p) / h, floor, h)
        assert dominance_node == node
        assert (dominance_node is None) == u.is_kahler()
        assert (which, condition) in {(None, None), ("u'", "slope"), ("u''", "curvature")}
        if u.is_kahler():
            ricci_potential(u)
        else:
            with pytest.raises(DegenerateMetricError) as err:
                ricci_potential(u)
            assert err.value.node == node
            assert str(err.value).startswith(f"{which} fails positivity at node {node} ")


class TestFubiniStudy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_psi_is_a_read_only_array_of_the_closed_form(self, n):
        m = KahlerModel(n, n + 1.5)
        assert type(m.psi) is np.ndarray and m.psi.dtype == np.float64
        assert np.array_equal(m.psi, (n + 1.5) * softplus(m.grid.nodes))
        with pytest.raises(ValueError, match="read-only"):
            m.psi[0] = 0.0

    def test_value_at_origin(self, model_n1):
        # psi(0) = d log 2 for d = 2
        i = model_n1.grid.index_of(0.0)
        assert model_n1.psi[i] == pytest.approx(2.0 * np.log(2.0), abs=1e-14)

    def test_right_asymptotic_slope_is_degree(self):
        for n, d in [(1, 2.0), (2, 3.0), (3, 7.5)]:
            m = KahlerModel(n, d)
            slopes = np.diff(m.psi) / m.grid.h
            assert slopes[-1] == pytest.approx(d, abs=1e-9)
            assert slopes[0] == pytest.approx(0.0, abs=1e-9)

    def test_midpoint_slope_is_half_degree(self, model_n1):
        # psi' = d expit(s), 1 at s = 0 for d = 2
        i = model_n1.grid.index_of(0.0)
        s = model_n1.grid.nodes[i]
        assert model_n1.degree * expit(s) == pytest.approx(1.0, abs=1e-15)

    def test_degree_must_be_positive(self, model_n1):
        with pytest.raises(ConfigurationError):
            KahlerModel(1, -1.0, model_n1.grid)

    @pytest.mark.parametrize("degree", [np.nan, np.inf, 0.0])
    def test_degree_must_be_finite_and_positive(self, model_n1, degree):
        # a nan passes a sign check; the message names the degree
        message = f"^degree must be {'positive' if degree == 0 else 'finite'}, got {degree}$"
        with pytest.raises(ConfigurationError, match=message):
            KahlerModel(1, degree, model_n1.grid)

    def test_reference_is_kahler(self, model_n1, model_n2):
        for m in (model_n1, model_n2):
            assert RadialPotential(m.grid, m.psi, m.n).is_kahler()


class TestMaDensity:
    def test_affine_potential_has_zero_density(self, model_n1):
        g = model_n1.grid
        u = RadialPotential(g, 0.7 * g.nodes + 3.0, 1)
        # formula path: exactly zero for vanishing curvature
        assert ma_density_formula(1, g.nodes, np.full(g.points, 0.7), 0.0) == pytest.approx(0.0)
        # grid path: the slopes are constant to rounding; the density, on the
        # interior nodes, inherits it wherever the e^{-ns} factor does not
        # amplify the rounding floor
        cells = cell_masses(u.slopes, 1, g.h)
        assert np.max(np.abs(cells)) < rounding_floor(u.values, g.h)
        density = np.exp(-g.nodes[1:-1]) * cells
        assert density.shape == (g.points - 2,)
        right = g.nodes[1:-1] >= 0.0
        assert np.max(np.abs(density[right])) < 1e-10

    def test_fs_density_at_origin_n1(self, model_n1):
        # sympy oracle: e^{-s} d^2/ds^2 [2 log(1+e^s)] = 2/(1+e^s)^2 -> 1/2 at s=0
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        expr = sympy.exp(-s) * sympy.diff(2 * sympy.log(1 + sympy.exp(s)), s, 2)
        assert float(expr.subs(s, 0)) == pytest.approx(0.5)
        # row i - 1 of the interior-node cell masses is node i, where e^{-s} = 1
        g = model_n1.grid
        i = g.index_of(0.0)
        cells = cell_masses(np.diff(model_n1.psi) / g.h, 1, g.h)
        assert cells[i - 1] == pytest.approx(0.5, abs=1e-5)

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
        for m, want in ((model_n1, 2.0), (model_n2, 9.0)):
            zero = np.zeros(m.grid.points)
            assert diagnostics_for(zero, constant_rhs(m)).mass == pytest.approx(want, abs=1e-9)

    def test_constant_shift_preserves_mass(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        phi = newton_solve(model_n1, rhs, magnifying(0.5)).phi
        mass = diagnostics_for(phi, rhs).mass
        assert diagnostics_for(phi + 17.0, rhs).mass == pytest.approx(mass, rel=1e-12)

    def test_two_slope_potential(self, model_n1):
        # u = gamma s + (d - gamma) softplus(s), left slope gamma, right slope
        # d: mass d^n - gamma^n exactly; phi = u - psi = -gamma softplus(-s)
        gamma, d = 0.6, 2.0
        phi = -gamma * np.logaddexp(0, -model_n1.grid.nodes)
        mass = diagnostics_for(phi, constant_rhs(model_n1)).mass
        assert mass == pytest.approx(d - gamma, abs=1e-9)

    def test_grid_mass_where_psi_is_large(self):
        # on [e^3, 2 e^3] |psi| reaches 40, whose rounding the end values of
        # u carry; the solver's end fluxes read the grid's own mass
        # W_last - W_first (1.3e-6 relative off through u)
        m = KahlerModel(1, 1.0, SGrid(np.e**3, 2 * np.e**3, 9))
        res = newton_solve(m, constant_rhs(m), neutral())
        want = m.psi_slopes[-1] - m.psi_slopes[0]
        assert abs(res.diagnostics.mass - want) <= 4 * np.finfo(float).eps * want


def resolvable_curvature(u):
    """Contiguous interior range where second differences resolve the
    curvature well below 1e-8, so affineness checks are meaningful. The
    rounding floor scales with the local magnitude of the values; the right
    tail (large values, exponentially small curvature) falls out first."""
    eps = np.finfo(float).eps
    floor = 4.0 * eps * (np.abs(u.values) + np.finfo(float).tiny) / u.grid.h**2
    ok = np.diff(u.slopes) / u.grid.h >= 1e10 * floor[1:-1]
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

        u = RadialPotential(model_n1.grid, model_n1.psi, 1)
        rho_num = ricci_potential(u)
        mask = resolvable_curvature(u)
        gap = (rho_num - model_n1.psi[1:-1])[mask]
        assert gap.size > 2000
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_fs_curvature_proportional_to_reference(self, n):
        # curvature form of FS(d) equals ((n+1)/d) times its Kahler form
        d = n + 2.5
        m = KahlerModel(n, d)
        u = RadialPotential(m.grid, m.psi, n)
        gap = (ricci_potential(u) - ((n + 1) / d) * m.psi[1:-1])[resolvable_curvature(u)]
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_anticanonical_einstein_residual(self, n):
        m = KahlerModel(n, float(n + 1))
        u = RadialPotential(m.grid, m.psi, n)
        gap = (ricci_potential(u) - m.psi[1:-1])[resolvable_curvature(u)]
        assert np.max(np.abs(np.diff(gap, 2))) < 1e-8

    def test_degenerate_input_names_first_node(self, model_n1):
        g = model_n1.grid
        vals = model_n1.psi - 5e-2 * np.exp(-((g.nodes - 3.0) ** 2))
        with pytest.raises(DegenerateMetricError) as err:
            ricci_potential(RadialPotential(g, vals, 1))
        assert err.value.node == 2200
        assert str(err.value) == "u'' fails positivity at node 2200 (s = 4)"


class TestDominates:
    """ddbar(q - p) >= 0 is decided by ``first_violation`` of the slopes of
    q - p, the rule ``kahler_violation`` applies to one potential."""

    def test_slopes_are_held_to_the_rounding_of_a_first_difference(self, model_n1):
        # every slope of q - p is -0.25 expit(s) < 0; the first below the
        # floor times h, 1.4e-11, is at s = -23.6, while the floor alone,
        # 7.1e-10, would pass every slope up to s = -19.68
        g = model_n1.grid
        p = model_n1.psi
        q = p - 0.25 * np.logaddexp(0, g.nodes)
        assert np.all(np.diff(q - p) < 0.0)
        floor = max(rounding_floor(q, g.h), rounding_floor(p, g.h))
        assert first_violation(np.diff(q - p) / g.h, floor, g.h) == (820, "slope")
        assert g.nodes[820] == pytest.approx(-23.6)

    def test_curvature_failure_before_a_slope_failure(self):
        # q - p decreases its slope at node 3 before its slope turns
        # negative at node 5
        g = SGrid(0.0, 10.0, 11)
        q = np.array([0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 3.0, 2.0, 3.0, 5.0, 8.0])
        p = np.zeros(11)
        floor = max(rounding_floor(q, g.h), rounding_floor(p, g.h))
        assert first_violation(np.diff(q - p) / g.h, floor, g.h) == (3, "curvature")


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
            # the reduced volume density n (psi')^{n-1} psi'', psi' = d expit(s)
            lambda s: m.n * (m.degree * expit(s)) ** (m.n - 1) * m.degree * expit(s) * expit(-s),
            m.grid.s_min, m.grid.s_max)
        assert average(psi1, m) == pytest.approx(expected, abs=1e-8)


class TestLelong:
    def test_smooth_reference_has_no_pole(self, model_n1):
        est = pole_lelong(np.zeros(model_n1.grid.points), constant_rhs(model_n1))
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_affine_left_slope_exact(self, model_n1):
        g = model_n1.grid
        nu0 = 0.735
        est = pole_lelong(nu0 * (g.nodes - g.s_min) - model_n1.psi,
                          constant_rhs(model_n1))
        assert est.value == pytest.approx(nu0, abs=1e-13)
        assert est.sensitivity < 1e-13

    def test_neutral_solution_with_submerged_pole(self, model_n1):
        # mollifier small enough that the pole layer sits below the cut:
        # the left-edge secant then reads the pole mass directly
        gamma = 1.0
        with pytest.warns(UserWarning, match="below the left truncation"):
            rhs = build_dirac_rhs(gamma, 1e-10, model_n1)
        u = neutral_oracle(model_n1, rhs)
        est = pole_lelong(u.values - model_n1.psi, rhs)
        assert est.value == pytest.approx(gamma, rel=0.02)

    @pytest.mark.parametrize("s_max,points", [(2.0, 401), (-1.0, 5), (0.5, 9)])
    def test_window_is_clamped_to_a_narrow_grid(self, s_max, points):
        # a grid narrower than LELONG_WINDOW = 5 reads the secant over all of it
        m = KahlerModel(1, 2.0, SGrid(-2.0, s_max, points))
        g = m.grid
        est = pole_lelong(0.5 * (g.nodes - g.s_min) - m.psi, constant_rhs(m))
        assert est.window_width == g.s_max - g.s_min
        assert type(est.window_width) is float
        assert est.value == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("family", ["constant", "dirac"])
    def test_window_width_is_a_float_on_both_branches(self, model_n1, family):
        # the point-mass branch reads its window off rhs.pole_anchor
        rhs = constant_rhs(model_n1) if family == "constant" \
            else build_dirac_rhs(1.2, 1e-2, model_n1)
        est = pole_lelong(np.zeros(model_n1.grid.points), rhs)
        assert (est.window_width == 5.0) == (family == "constant")
        assert type(est.window_width) is float


class TestDiagnosticsInvariants:
    def test_average_between_extrema(self, model_n1):
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi = rng.normal(scale=2.0, size=model_n1.grid.points)
            a = average(phi, model_n1)
            assert phi.min() - 1e-12 <= a <= phi.max() + 1e-12
