"""Singular right-hand-side families: mollifiers, normalisation, margins."""

import gc
import math
import tracemalloc
import weakref
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from radialma import (
    ConfigurationError,
    KahlerModel,
    RhsFamily,
    SGrid,
    build_dirac_rhs,
    build_divisor_rhs,
    check_lower_bound,
    constant_rhs,
    neutral_oracle,
    xi_eps,
)
from radialma import rhs as rhs_module
from radialma.grid import MEMO_SIZE, cell_masses, expit
from radialma.rhs import MollifierProfile, dominance_margin, pole_lelong

from oracles import (
    dirac_density,
    dirac_rhs_per_call,
    disc_mass_quad,
    log_curvature_derivs_per_call,
    lower_bound_per_call,
    reduced_mass,
    second_derivative,
    singular_mass,
    xi_eps_d1,
    xi_eps_d2,
)


class TestDiracDensity:
    """The continuum point-mass mollifier on the complex line,
    ``oracles.dirac_density``: at a = eps it is dd^c of xi_eps, the pole
    the point-mass family mollifies."""

    @pytest.mark.parametrize("a", [1.0, 0.1, 0.01])
    def test_unit_mass_over_plane(self, a):
        # closed-form tail beyond R: a^2/(R^2+a^2)
        R = 100.0
        val = disc_mass_quad(lambda r2: dirac_density(a, r2), R)
        assert val + a * a / (R * R + a * a) == pytest.approx(1.0, abs=1e-9)

    def test_value_at_origin(self):
        assert dirac_density(0.2, 0.0) == pytest.approx(1.0 / (np.pi * 0.04))

    def test_concentrates_at_origin(self):
        vals = [dirac_density(a, 0.25) for a in (0.1, 0.03, 0.01, 0.003)]
        assert all(b < v for v, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    @pytest.mark.parametrize("a", [1.0, 0.1, 0.01])
    def test_nested_disc_mass_matches_closed_form(self, a):
        for R in (1.0, 5.0, 25.0):
            val = disc_mass_quad(lambda r2: dirac_density(a, r2), R)
            assert val == pytest.approx(1.0 - a * a / (R * R + a * a), abs=1e-9)

    @pytest.mark.parametrize("a", [1.0, 0.1, 0.01])
    def test_log_superharmonic_on_grid(self, a, model_n1):
        # -log of the density, as a function of s with |z|^2 = e^s, has
        # nonnegative curvature at every node
        g = model_n1.grid
        q = -np.log(dirac_density(a, np.exp(g.nodes)))
        assert np.min(second_derivative(q, g.h)[1:-1]) > -1e-9

    def test_curvature_identity_pi_free(self):
        # symbolic oracle: -dd log of the density is 2 a^2/(|z|^2+a^2)^2,
        # with no pi (constants drop out of the log)
        sympy = pytest.importorskip("sympy")
        z, zb, a = sympy.symbols("z zbar a", positive=True)
        f = a**2 / (sympy.pi * (z * zb + a**2) ** 2)
        lhs = -sympy.diff(sympy.log(f), z, zb)
        rhs = 2 * a**2 / (z * zb + a**2) ** 2
        assert sympy.simplify(lhs - rhs) == 0


class TestXiEps:
    def test_approaches_log_coordinate_from_above(self):
        s = np.linspace(-5, 5, 11)
        for eps in (1e-2, 1e-4, 1e-6):
            gap = xi_eps(s, eps) - s
            assert np.all(gap > 0)
        assert np.max(xi_eps(s, 1e-8) - s) < 1e-10

    def test_monotone_in_eps(self):
        # strict decrease wherever the eps^2 e^{-s} gap is representable
        s = np.linspace(-30, 5, 71)
        eps_grid = [0.5, 0.1, 0.02, 0.004]
        prev = xi_eps(s, eps_grid[0])
        for eps in eps_grid[1:]:
            cur = xi_eps(s, eps)
            assert np.all(cur < prev)
            prev = cur

    def test_transition_point_values(self):
        # at s = 2 log eps: value log(2 eps^2) and curvature exactly 1/4
        sympy = pytest.importorskip("sympy")
        s, e = sympy.symbols("s eps", positive=True)
        xi = sympy.log(sympy.exp(s) + e**2)
        d2 = sympy.diff(xi, s, 2)
        assert sympy.simplify(d2.subs(s, sympy.log(e**2)) - sympy.Rational(1, 4)) == 0
        eps = 1e-3
        s0 = 2 * np.log(eps)
        assert xi_eps(s0, eps) == pytest.approx(np.log(2 * eps**2))
        assert xi_eps_d2(s0, eps) == pytest.approx(0.25)
        assert xi_eps_d1(s0, eps) == pytest.approx(0.5)


class TestDiracFamily:
    def test_zero_pole_mass_gives_unit_rhs(self, model_n1):
        rhs = build_dirac_rhs(0.0, 1e-3, model_n1)
        assert rhs.kind == "constant"
        assert rhs.density is model_n1.weight
        assert rhs.left_flux_offset == 0.0

    def test_singular_part_mass(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        assert singular_mass(rhs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,d,gamma", [(1, 2.0, 1.0), (1, 2.0, 1.8), (2, 3.0, 1.3)])
    def test_normalised_mass_is_model_mass(self, n, d, gamma):
        m = KahlerModel(n, d)
        rhs = build_dirac_rhs(gamma, 1e-3, m)
        assert reduced_mass(rhs) == pytest.approx(d**n, abs=1e-8)

    def test_positive_everywhere(self, model_n1):
        # F > 0 as the solver reads it: every cell mass is positive where
        # the model's weight is
        smooth = model_n1.weight > 0.0
        for eps in (1e-1, 1e-3, 1e-4):
            rhs = build_dirac_rhs(1.5, eps, model_n1)
            assert np.min(rhs.density[smooth]) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cell_masses_nonnegative(self, n):
        # the closed-form half-node slopes of psi increase, so the smooth
        # cell masses and the point-mass family built on them are >= 0 in
        # the flat right tail too, where differences of node values carry
        # the rounding of |psi|
        m = KahlerModel(n, n + 1.0)
        assert np.all(np.diff(m.psi_slopes) >= 0.0)
        assert np.min(m.weight) >= 0.0
        for eps in (1e-1, 1e-3, 1e-5):
            assert np.min(build_dirac_rhs(0.5 * (n + 1.0), eps, m).density) >= 0.0

    def test_closed_form_slopes_match_node_differences(self):
        # the closed form moves the slopes by rounding only
        for n in (1, 4):
            m = KahlerModel(n, n + 1.0)
            diffs = np.diff(m.psi) / m.grid.h
            assert np.max(np.abs(m.psi_slopes - diffs)) <= 1e-11

    def test_pole_mass_above_model_mass_rejected(self, model_n1):
        with pytest.raises(ConfigurationError):
            build_dirac_rhs(2.5, 1e-3, model_n1)

    def test_pole_mass_at_model_mass_warns(self, model_n1):
        with pytest.warns(UserWarning, match="equals the model mass"):
            build_dirac_rhs(2.0, 1e-3, model_n1)

    def test_pole_mass_at_model_mass_curvature_is_the_layer_alone(self):
        # gamma = d leaves no smooth part (c_smooth is exactly 0), so the
        # mixture's curvature is the mollified layer's: q' = (n + 1) expit(a),
        # q'' = (n + 1) expit(a) expit(-a), a = s - 2 log eps
        n, eps = 2, 1e-3
        m = KahlerModel(n, n + 1.0)
        with pytest.warns(UserWarning, match="equals the model mass"):
            rhs = build_dirac_rhs(n + 1.0, eps, m)
        assert rhs.c_smooth == 0.0
        a = m.grid.nodes - 2.0 * np.log(eps)
        q1, q2 = rhs.log_curvature_derivs()
        np.testing.assert_array_equal(q1, (n + 1) * expit(a))
        np.testing.assert_allclose(q2, (n + 1) * expit(a) * expit(-a), rtol=1e-15, atol=0)


def with_cell_masses(rhs, density):
    """``rhs`` with cell masses ``density``: a profile of unit scale and no
    smooth part."""
    profile = MollifierProfile(density, float(np.sum(density)))
    return replace(rhs, profile=profile, profile_scale=1.0, c_smooth=0.0)


class TestPreconditions:
    # what makes every solve Kahler by construction is checked on the type

    def test_f_strictly_positive(self, model_n1):
        # F is read through its cell masses: a negative smooth part leaves
        # negative ones in the right tail, where the pole's vanish
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            replace(rhs, c_smooth=-1.0)

    def test_nan_f_rejected(self, model_n1):
        # a NaN F is no positive density: its smooth part is rejected by name
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        with pytest.raises(ConfigurationError, match="^c_smooth must be finite, got nan$"):
            replace(rhs, c_smooth=math.nan)

    def test_cell_masses_carry_mass(self, model_n1):
        # F = 0 is nonnegative everywhere but no density
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        with pytest.raises(ConfigurationError, match="positive total"):
            with_cell_masses(rhs, np.zeros_like(rhs.density))

    def test_cell_masses_live_on_the_interior_nodes(self):
        m = KahlerModel(2, 3.0)
        interior = (m.grid.points - 2,)
        assert np.array_equal(m.weight, cell_masses(m.psi_slopes, m.n, m.grid.h))
        assert m.weight.shape == interior
        for rhs in (constant_rhs(m), build_dirac_rhs(1.5, 1e-3, m),
                    build_divisor_rhs(0.5, 1e-3, m)):
            assert rhs.density.shape == interior
            assert rhs.profile is None or rhs.profile.cells.shape == interior
        with pytest.raises(ConfigurationError, match="profile does not live on the model grid"):
            RhsFamily("dirac_approx", m, profile=MollifierProfile(np.ones(m.grid.points), 1.0))

    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_cell_masses_finite_and_nonnegative(self, model_n1, bad):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        density = rhs.density.copy()
        density[2000] = bad
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            with_cell_masses(rhs, density)

    def test_first_slope_within_psi_slopes(self, model_n1):
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        W = model_n1.psi_slopes
        for offset in (-W[0] - 1e-3, W[-1] - W[0], 3.0):
            with pytest.raises(ConfigurationError, match="first slope"):
                replace(rhs, left_flux_offset=offset)
        assert replace(rhs, left_flux_offset=-W[0]).left_flux_offset == -W[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,build", [
        ("gamma", lambda m, x: build_dirac_rhs(x, 1e-3, m)),
        ("eps", lambda m, x: build_dirac_rhs(1.0, x, m)),
        ("delta_prime", lambda m, x: build_divisor_rhs(x, 1e-3, m)),
        ("eps", lambda m, x: build_divisor_rhs(0.5, x, m)),
    ], ids=["dirac-gamma", "dirac-eps", "divisor-delta_prime", "divisor-eps"])
    def test_builders_name_a_non_finite_parameter(self, model_n1, name, build, bad):
        # nan passes every sign check of the builders, and so does an infinite eps
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            build(model_n1, bad)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_builders_meet_them(self, n):
        m = KahlerModel(n, n + 1.0)
        for eps in (1e-1, 1e-3, 1e-5):
            build_dirac_rhs(0.5 * (n + 1.0), eps, m)
            build_dirac_rhs(0.99 * (n + 1.0), eps, m)
            build_divisor_rhs(0.5 * n, eps, m)


class TestDivisorFamily:
    def test_zero_order_gives_unit_rhs(self, model_n1):
        rhs = build_divisor_rhs(0.0, 1e-3, model_n1)
        assert rhs.kind == "constant"
        assert rhs.density is model_n1.weight

    def test_normalised(self, model_n1, model_n2):
        for m, dp in ((model_n1, 0.3), (model_n2, 1.2)):
            rhs = build_divisor_rhs(dp, 1e-3, m)
            assert reduced_mass(rhs) == pytest.approx(m.degree**m.n, abs=1e-8)

    @pytest.mark.parametrize("delta_prime,eps,n,d,grid", [
        (3.0, 1e-6, 4, 2.5, SGrid(-190.0, 1934.0, 5)),
        (0.5, 1e-3, 1, 2.0, SGrid(-40.0, 1500.0, 4001)),
    ])
    def test_builds_where_the_pole_factor_underflows(self, delta_prime, eps, n, d, grid):
        # e^{-delta' xi_eps} underflows to 0 where delta' s > ~745; the cell
        # masses, formed in log space, still carry the grid's whole mass
        m = KahlerModel(n, d, grid)
        rhs = build_divisor_rhs(delta_prime, eps, m)
        W = m.psi_slopes
        assert reduced_mass(rhs) == pytest.approx(W[-1] ** n - W[0] ** n, rel=1e-12)

    def test_pole_order_at_dimension_rejected(self, model_n1):
        with pytest.raises(ConfigurationError):
            build_divisor_rhs(1.0, 1e-3, model_n1)

    def test_fractional_pole_leaves_no_lelong(self, model_n1):
        # the fractional pole carries no atom: the neutral solution of the
        # divisor family stays slope-0 at the pole for every small order
        for dp in (0.3, 0.1, 0.03):
            rhs = build_divisor_rhs(dp, 1e-6, model_n1)
            u = neutral_oracle(model_n1, rhs)
            est = pole_lelong(u.values - model_n1.psi, rhs)
            assert est.value < 1e-3

    def test_margin_positive_up_to_reported_order(self, model_n1):
        # grid search: the curvature bound holds on the whole normalisable
        # range of pole orders
        orders = np.linspace(0.0, 0.9, 10)
        etas = [check_lower_bound(build_divisor_rhs(dp, 1e-3, model_n1)).eta
                for dp in orders]
        assert all(e > 0 for e in etas)
        delta0 = orders[int(np.max(np.nonzero(np.array(etas) > 0)[0]))]
        assert delta0 == pytest.approx(0.9)


class TestLowerBound:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unit_rhs_anticanonical_margin(self, n):
        m = KahlerModel(n, float(n + 1))
        report = check_lower_bound(constant_rhs(m))
        assert report.eta == pytest.approx(n + 1, abs=1e-6)
        assert report.limiting_node is None

    @pytest.mark.parametrize("grid", [SGrid(-800.0, 40.0, 8001), SGrid(-40.0, 720.0, 4001),
                                      SGrid(-1000.0, 1000.0, 2001)])
    def test_margin_finite_on_wide_grids(self, grid):
        # beyond |s| ~ 709 the reference form underflows to 0 with the
        # family's own; those nodes bound nothing, and the cell masses stay finite
        for n in (1, 2):
            m = KahlerModel(n, n + 1.0, grid)
            report = check_lower_bound(constant_rhs(m))
            assert report.eta == pytest.approx(n + 1, abs=1e-6)
            assert report.limiting_node is None
            for rhs in (build_dirac_rhs(0.9 * m.degree, 1e-3, m),
                        build_divisor_rhs(0.5, 1e-3, m)):
                assert np.all(np.isfinite(rhs.density))
                eta = check_lower_bound(rhs).eta
                assert math.isfinite(eta) and eta >= 0.0

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_nan_ratio_binds(self, model_n1, which):
        s = model_n1.grid.nodes
        q = [2.0 * expit(s), 2.0 * expit(s) * expit(-s)]
        q[which][7] = np.nan
        rep = dominance_margin(*q, model_n1)
        assert (rep.eta, rep.limiting_node) == (0.0, 7)
        assert rep.limiting_condition == ("slope", "curvature")[which]

    def test_reference_multiple_recovered_exactly(self, model_n1):
        # q with derivative pair eta0 * (psi_1', psi_1'') returns eta0
        from scipy.special import expit
        s = model_n1.grid.nodes
        eta0 = 1.375
        rep = dominance_margin(eta0 * expit(s), eta0 * expit(s) * expit(-s), model_n1)
        assert rep.eta == pytest.approx(eta0, abs=1e-12)

    def test_dirac_part_alone_is_superharmonic(self, model_n1):
        # n = 1: -log of the singular part has curvature 2 xi'' >= 0
        eps = 1e-2
        g = model_n1.grid
        q = -np.log(np.exp(-g.nodes) * xi_eps_d2(g.nodes, eps))
        d2 = second_derivative(q, g.h)[1:-1]
        assert np.min(d2) > -1e-7
        expected = 2.0 * xi_eps_d2(g.nodes, eps)[1:-1]
        bulk = np.abs(g.nodes[1:-1]) <= 20
        assert np.max(np.abs(d2 - expected)[bulk]) < 1e-5

    def test_dirac_mixture_fails_bound_at_crossover(self, model_n1):
        # probe outcome: the mixture of pole and background profiles has a
        # concave shoulder in its log density, so no positive margin exists
        rep = check_lower_bound(build_dirac_rhs(1.8, 1e-3, model_n1))
        assert rep.eta == 0.0
        assert rep.limiting_node is not None
        assert rep.limiting_condition == "curvature"


CLOSED_FORM_CASES = [(n, frac, eps) for n in (1, 2, 3) for frac in (0.3, 0.9)
                     for eps in (1e-1, 1e-3, 1e-4)]
# gamma from a small pole to the whole model mass, where no smooth part is left
SHARED_PROFILE_CASES = [(n, frac, eps) for n in (1, 2, 3) for frac in (0.1, 0.5, 1.0)
                        for eps in (1e-1, 1e-4)]


class TestCachedClosedForms:
    """src against the per-call oracles in ``tests/oracles.py``: a family's
    cell masses, c_smooth and left flux, its (q', q'') and its memoised
    curvature margin agree bit for bit with the formulas evaluated per
    call."""

    @pytest.mark.parametrize("n,frac,eps", CLOSED_FORM_CASES + SHARED_PROFILE_CASES)
    def test_dirac_rhs_unchanged(self, n, frac, eps):
        m = KahlerModel(n, n + 1.0)
        with (pytest.warns(UserWarning, match="equals the model mass") if frac == 1.0
              else nullcontext()):
            rhs = build_dirac_rhs(frac * m.degree, eps, m)
        density, c, offset = dirac_rhs_per_call(frac * m.degree, eps, m)
        assert np.array_equal(rhs.density, density)
        assert np.array_equal(rhs.c_smooth, c)
        assert np.array_equal(rhs.left_flux_offset, offset)

    @pytest.mark.parametrize("n,frac,eps", CLOSED_FORM_CASES)
    def test_curvature_margin_unchanged(self, n, frac, eps):
        m = KahlerModel(n, n + 1.0)
        rhs = build_dirac_rhs(frac * m.degree, eps, m)
        for got, want in zip(rhs.log_curvature_derivs(), log_curvature_derivs_per_call(rhs)):
            assert np.array_equal(got, want)
        rep = check_lower_bound(rhs)
        eta, node = lower_bound_per_call(rhs)
        assert np.array_equal(rep.eta, eta)
        assert rep.limiting_node == node

    @pytest.mark.parametrize("n", [1, 2])
    def test_other_families_unchanged(self, n):
        m = KahlerModel(n, n + 1.0)
        for rhs in (constant_rhs(m), build_divisor_rhs(0.5, 1e-3, m)):
            for got, want in zip(rhs.log_curvature_derivs(),
                                 log_curvature_derivs_per_call(rhs)):
                assert np.array_equal(got, want)
            assert check_lower_bound(rhs).eta == lower_bound_per_call(rhs)[0]


class TestFamilyMemo:
    """A family is built once per model and kept on it; every call still
    validates and warns."""

    @pytest.mark.parametrize("build", [
        lambda m, eps: build_dirac_rhs(1.0, eps, m),
        lambda m, eps: build_divisor_rhs(0.5, eps, m),
    ])
    def test_repeat_call_returns_the_same_family(self, build):
        m = KahlerModel(1, 2.0)
        first = build(m, 1e-3)
        assert build(m, 1e-3) is first
        assert build(m, 1e-2) is not first

    def test_every_call_warns(self):
        m = KahlerModel(1, 2.0)
        families = []
        for _ in range(3):
            # 2 log(1e-12) lies within 8 of s_min = -40
            with pytest.warns(UserWarning, match="left truncation"):
                families.append(build_dirac_rhs(1.0, 1e-12, m))
            with pytest.warns(UserWarning, match="equals the model mass"):
                families.append(build_dirac_rhs(2.0, 1e-3, m))
        assert families[::2] == [families[0]] * 3
        assert families[1::2] == [families[1]] * 3

    def test_invalid_parameters_raise_on_every_call(self):
        m = KahlerModel(1, 2.0)
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                build_dirac_rhs(2.5, 1e-3, m)
            with pytest.raises(ConfigurationError):
                build_divisor_rhs(0.5, float("nan"), m)

    def test_models_share_no_entry(self):
        a, b = KahlerModel(1, 2.0), KahlerModel(1, 2.0)
        fa, fb = build_dirac_rhs(1.0, 1e-3, a), build_dirac_rhs(1.0, 1e-3, b)
        assert fa is not fb
        assert fa.model is a and fb.model is b
        assert np.array_equal(fa.density, fb.density)

    def test_seventeenth_key_evicts_the_first(self):
        # a divisor family takes one entry, its profile none
        assert MEMO_SIZE == 16
        m = KahlerModel(1, 2.0)
        eps = [10.0 ** (-1.0 - k / 4.0) for k in range(17)]
        kept = [build_divisor_rhs(0.5, e, m) for e in eps[:16]]
        assert all(build_divisor_rhs(0.5, e, m) is f for e, f in zip(eps, kept))
        build_divisor_rhs(0.5, eps[16], m)
        assert all(build_divisor_rhs(0.5, e, m) is f for e, f in zip(eps[1:16], kept[1:]))
        again = build_divisor_rhs(0.5, eps[0], m)
        assert again is not kept[0]
        assert np.array_equal(again.density, kept[0].density)

    def test_a_point_mass_profile_takes_an_entry(self, monkeypatch):
        # a point-mass family and its profile are two entries of the one
        # cache: eight eps fill it, a ninth evicts the first family and its
        # profile
        builds = []
        original = rhs_module._pole_profile
        monkeypatch.setattr(rhs_module, "_pole_profile",
                            lambda eps, m: builds.append(eps) or original(eps, m))
        m = KahlerModel(1, 2.0)
        eps = [10.0 ** (-1.0 - k / 4.0) for k in range(MEMO_SIZE // 2 + 1)]
        kept = [build_dirac_rhs(1.0, e, m) for e in eps[:-1]]
        build_dirac_rhs(1.0, eps[-1], m)
        assert builds == eps
        assert all(build_dirac_rhs(1.0, e, m) is f for e, f in zip(eps[1:-1], kept[1:]))
        again = build_dirac_rhs(1.0, eps[0], m)
        assert again is not kept[0] and again.profile is not kept[0].profile
        assert builds == [*eps, eps[0]]
        assert np.array_equal(again.density, kept[0].density)

    def test_a_profile_outlives_its_families(self):
        # eight gamma = 1 families, each fetched again, then a ninth eps:
        # a family the model still keeps shares its profile with a new
        # gamma at its eps
        m = KahlerModel(1, 2.0)
        eps = [10.0 ** (-1.0 - k / 4.0) for k in range(MEMO_SIZE // 2 + 1)]
        kept = [build_dirac_rhs(1.0, e, m) for e in eps[:-1]]
        assert all(build_dirac_rhs(1.0, e, m) is f for e, f in zip(eps, kept))
        build_dirac_rhs(1.0, eps[-1], m)
        other = build_dirac_rhs(0.5, eps[0], m)
        assert build_dirac_rhs(1.0, eps[0], m).profile is other.profile

    def test_a_deleted_model_is_collected(self):
        m = KahlerModel(1, 2.0)
        rhs = build_dirac_rhs(1.0, 1e-3, m)
        check_lower_bound(rhs)
        ref = weakref.ref(m)
        del m, rhs
        gc.collect()
        assert ref() is None


class TestSharedProfile:
    """The families at one (model, eps) share one mollifier profile and hold
    no grid array of their own."""

    def test_every_gamma_shares_one_profile(self):
        m = KahlerModel(2, 3.0)
        families = [build_dirac_rhs(frac * m.degree, 1e-3, m) for frac in (0.1, 0.5, 0.9)]
        divisor = build_divisor_rhs(0.5, 1e-3, m)
        for rhs in (*families, divisor, constant_rhs(m)):
            assert not [v for v in vars(rhs).values() if isinstance(v, np.ndarray)]
        assert all(rhs.profile is families[0].profile for rhs in families)
        assert build_dirac_rhs(1.5, 1e-2, m).profile is not families[0].profile
        assert divisor.profile is not families[0].profile
        assert constant_rhs(m).density is m.weight

    def test_an_evicted_profile_is_built_again(self):
        # the model keeps a profile as it keeps a family, not for as long
        # as a family holds it: after eviction a new family at that eps
        # builds its own
        m = KahlerModel(1, 2.0)
        kept = build_dirac_rhs(1.0, 1e-3, m)
        assert build_dirac_rhs(0.5, 1e-3, m).profile is kept.profile
        for k in range(MEMO_SIZE // 2):  # sixteen new entries evict those three
            build_dirac_rhs(1.0, 10.0 ** (-1.0 - k / 8.0), m)
        again = build_dirac_rhs(0.8, 1e-3, m)
        assert again.profile is not kept.profile
        assert np.array_equal(again.profile.cells, kept.profile.cells)
        assert again.profile.total == kept.profile.total
        assert again.profile.first_slope == kept.profile.first_slope

    def test_sixty_four_families_hold_less_than_two_grid_arrays(self):
        m = KahlerModel(1, 2.0)
        build_dirac_rhs(1.0, 1e-2, m)  # builds the model's cached arrays before tracing
        tracemalloc.start()
        try:
            families = [build_dirac_rhs(g, 1e-3, m) for g in np.linspace(0.02, 1.98, 64)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len({id(rhs.profile) for rhs in families}) == 1
        assert held < 2 * m.grid.points * 8


class TestCachedMargin:
    @pytest.mark.parametrize("make", [
        lambda m: build_dirac_rhs(1.8, 1e-3, m),
        lambda m: build_dirac_rhs(0.5, 1e-1, m),
        lambda m: build_divisor_rhs(0.5, 1e-3, m),
        constant_rhs,
    ])
    def test_equals_a_fresh_dominance_margin(self, make):
        m = KahlerModel(1, 2.0)
        rhs = make(m)
        fresh = dominance_margin(*rhs.log_curvature_derivs(), m)
        report = check_lower_bound(rhs)
        assert report == fresh
        assert check_lower_bound(rhs) is report
