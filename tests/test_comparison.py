"""The discrete comparison principle, bootstrap bounds, amplification runs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialma import (
    ConfigurationError,
    CurvatureMarginWarning,
    EquationKind,
    KahlerModel,
    RadialPotential,
    SGrid,
    bootstrap_lelong_bound,
    build_dirac_rhs,
    build_divisor_rhs,
    constant_rhs,
    magnification_experiment,
    magnifying,
    continuity_in_t,
    neutral_oracle,
    newton_solve,
    sweep_epsilon,
    xi_eps,
)
from radialma import comparison

from oracles import bt_compare


def comparison_pair(model, gamma, eps):
    """The standard comparison instance: the neutral solution against the
    boundary-matched pole profile C + gamma * xi_eps on a pole-side window."""
    v = neutral_oracle(model, build_dirac_rhs(gamma, eps, model))
    g = model.grid
    a = g.s_min
    b = min(2.0 * np.log(eps) + 12.0, 0.0)
    xi = gamma * xi_eps(g.nodes, eps)
    ia, ib = g.index_of(a), g.index_of(b)
    c = max(v.values[ia] - xi[ia], v.values[ib] - xi[ib])
    u = RadialPotential(g, xi + c, model.n)
    return u, v, a, b


class TestBtCompare:
    """The comparison principle (``oracles.bt_compare``) on instances whose
    hypotheses are known to hold or fail."""

    def test_equal_potentials(self, model_n1):
        psi = RadialPotential(model_n1.grid, model_n1.psi, 1)
        rep = bt_compare(psi, psi, -10.0, 10.0)
        assert rep.holds and rep.hypotheses_ok
        assert rep.margin == 0.0

    def test_constant_shift(self, model_n1):
        u = RadialPotential(model_n1.grid, model_n1.psi + 0.7, 1)
        rep = bt_compare(u, RadialPotential(model_n1.grid, model_n1.psi, 1), -10.0, 10.0)
        assert rep.holds
        assert rep.margin == pytest.approx(0.7)

    def test_pole_profile_dominates_neutral_solution(self, model_n1):
        u, v, a, b = comparison_pair(model_n1, 1.0, 1e-3)
        rep = bt_compare(u, v, a, b)
        assert rep.hypotheses_ok
        assert rep.holds
        assert rep.margin >= -1e-9

    def test_randomized_instances_all_hold(self):
        # acceptance: 50 randomized (gamma, eps) comparison instances
        rng = np.random.default_rng(20240612)
        models = {1: KahlerModel(1, 2.0), 2: KahlerModel(2, 3.0)}
        for _ in range(50):
            n = int(rng.integers(1, 3))
            m = models[n]
            gamma = float(rng.uniform(0.2, 0.9)) * m.degree
            eps = 10.0 ** float(rng.uniform(-4.0, -1.0))
            u, v, a, b = comparison_pair(m, gamma, eps)
            rep = bt_compare(u, v, a, b)
            assert rep.hypotheses_ok, (n, gamma, eps)
            assert rep.holds and rep.margin >= -1e-9, (n, gamma, eps)

    def test_failed_hypothesis_is_reported_without_conclusion(self, model_n1):
        # reverse the density ordering: u strictly above in mass
        u, v, a, b = comparison_pair(model_n1, 1.0, 1e-3)
        rep = bt_compare(v, u, a, b)
        assert not rep.hypotheses_ok
        assert rep.failed_hypothesis in ("boundary domination", "density domination")
        assert not rep.holds
        # u = psi + 1 - e^{-s^2} carries more mass than psi near s = 0, less
        # on [-10, -5], and lies above it at both ends of [-10, 10]
        psi, s = RadialPotential(model_n1.grid, model_n1.psi, 1), model_n1.grid.nodes
        u = RadialPotential(psi.grid, psi.values + 1.0 - np.exp(-s**2), 1)
        reports = [bt_compare(u, psi, -10.0, -5.0), bt_compare(u, psi, -10.0, 10.0),
                   bt_compare(psi, u, -10.0, 10.0)]
        assert [rep.failed_hypothesis for rep in reports] == \
            [None, "density domination", "boundary domination"]

    @pytest.mark.parametrize("points", [4001, 16001, 64001])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reference_dominates_its_own_downward_shift(self, n, points):
        # psi >= psi - c with equal densities: both hypotheses hold exactly,
        # so the densities must agree to their rounding on every grid
        m = KahlerModel(n, n + 1.0, SGrid(-40.0, 40.0, points))
        psi = RadialPotential(m.grid, m.psi, n)
        for c in (1e-6, 1e-3, 1.0):
            rep = bt_compare(psi, RadialPotential(psi.grid, psi.values - c, n), -30.0, 30.0)
            assert rep.hypotheses_ok, (c, rep)
            assert rep.holds and rep.margin == pytest.approx(c, rel=1e-6), c


SOLVED_MODELS = {n: KahlerModel(n, n + 1.0) for n in (1, 2, 3, 4)}


class TestComparisonPrinciple:
    """Solutions are images of the flux-form map, so they are Kahler, and
    the flux form is a monotone scheme: whenever ``oracles.bt_compare``
    finds its hypotheses met, its conclusion must hold."""

    @staticmethod
    def solution(data, m):
        kind = data.draw(st.sampled_from(["reducing", "neutral", "magnifying"]))
        t = 0.0 if kind == "neutral" else data.draw(st.floats(0.05, 0.9))
        gamma = data.draw(st.floats(0.1, 0.9)) * m.degree
        eps = 10.0 ** data.draw(st.floats(-4.0, -1.0))
        res = newton_solve(m, build_dirac_rhs(gamma, eps, m), EquationKind(kind, t))
        assume(res.converged)
        assert res.u.is_kahler(), (kind, t, gamma, eps, res.u.kahler_violation())
        return res.u

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(n=st.integers(1, 4), data=st.data())
    def test_met_hypotheses_imply_the_conclusion(self, n, data):
        m = SOLVED_MODELS[n]
        u, v = self.solution(data, m), self.solution(data, m)
        a = data.draw(st.floats(-38.0, 30.0))
        b = data.draw(st.floats(a + 1.0, 38.0))
        ia, ib = m.grid.index_of(a), m.grid.index_of(b)
        # shift u to meet the boundary hypothesis with equality at one end
        c = max(v.values[ia] - u.values[ia], v.values[ib] - u.values[ib])
        u = RadialPotential(m.grid, u.values + c, n)
        rep = bt_compare(u, v, a, b)
        assert rep.failed_hypothesis != "boundary domination"
        if rep.hypotheses_ok:
            assert rep.holds, rep


class TestBootstrap:
    """The bound of the family phi solves for: its gamma, n and window."""

    def test_zero_sup_returns_gamma(self, model_n1):
        phi = np.zeros(model_n1.grid.points)
        rhs = build_dirac_rhs(1.4, 1e-3, model_n1)
        assert bootstrap_lelong_bound(phi, 0.3, rhs) == pytest.approx(1.4)

    def test_negative_sup_amplifies(self, model_n1):
        # sup phi = -B on the window: bound e^{tau0 B / n} gamma
        B, tau0, gamma = 2.0, 0.3, 1.4
        phi = np.full(model_n1.grid.points, -B)
        bound = bootstrap_lelong_bound(phi, tau0, build_dirac_rhs(gamma, 1e-3, model_n1))
        assert bound == pytest.approx(np.exp(tau0 * B) * gamma)

    def test_monotone_in_window_sup(self, model_n1):
        tau0, gamma = 0.25, 1.0
        rhs = build_dirac_rhs(gamma, 1e-3, model_n1)
        sups = np.linspace(-3.0, 3.0, 13)
        bounds = [bootstrap_lelong_bound(np.full(model_n1.grid.points, a), tau0, rhs)
                  for a in sups]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[6] == pytest.approx(gamma)

    @pytest.mark.parametrize("n", [1, 2])
    def test_window_reaches_the_pole_anchor(self, n):
        # on a solved amplifying potential the bound reads phi up to the
        # node nearest the layer's anchor: raising phi right of it changes
        # no bit, raising it by delta up to there scales the bound by
        # e^{-tau0 delta / n}
        m = KahlerModel(n, n + 1.0)
        eps, tau0, delta = 1e-3, 0.2, 0.7
        rhs = build_dirac_rhs(0.5 * m.degree, eps, m)
        _, res = continuity_in_t(m, rhs, magnifying(tau0), tau0)
        assert res.converged
        window = m.grid.nodes <= rhs.pole_anchor + 0.5 * m.grid.h
        bound = bootstrap_lelong_bound(res.phi, tau0, rhs)
        outside = res.phi + np.where(window, 0.0, 5.0)
        assert bootstrap_lelong_bound(outside, tau0, rhs) == bound
        inside = res.phi + np.where(window, delta, 0.0)
        assert bootstrap_lelong_bound(inside, tau0, rhs) == \
            pytest.approx(bound * np.exp(-tau0 * delta / n), rel=1e-12)

    def test_a_family_without_a_pole_bounds_zero(self, model_n1):
        phi = np.full(model_n1.grid.points, -3.0)
        for rhs in (constant_rhs(model_n1), build_divisor_rhs(0.5, 1e-3, model_n1),
                    build_dirac_rhs(0.0, 1e-3, model_n1)):
            assert bootstrap_lelong_bound(phi, 0.3, rhs) == 0.0, rhs.kind


class TestMagnificationExperiment:
    EPS_LIST = (1e-1, 1e-2, 1e-3, 1e-4)

    def test_zero_pole_mass_rows_are_inert(self, model_n1):
        report = magnification_experiment(model_n1, 0.0, 0.2, (1e-1, 1e-2))
        assert report.verdict == "reached_target"
        for row in report.rows:
            assert row.converged
            assert row.nu_measured == pytest.approx(0.0, abs=1e-2)
            assert abs(row.record.diagnostics.avg_phi) <= 1e-9

    def test_amplification_run(self, model_n1):
        # the point-mass family fails the curvature bound: the run goes on as
        # a probe, and the warning is its one report of that
        with pytest.warns(CurvatureMarginWarning,
                          match="tau0 = 0.2 is not below the curvature margin eta = 0;"):
            report = magnification_experiment(model_n1, 1.8, 0.2, self.EPS_LIST)
        rows = report.rows
        assert all(r.converged for r in rows)
        # volume average strictly increasing across the mollifier list
        avgs = [r.record.diagnostics.avg_phi for r in rows]
        assert all(b > a for a, b in zip(avgs, avgs[1:]))
        # amplification dominates neutrality row by row
        for r in rows:
            assert r.nu_measured >= r.nu_neutral
            assert r.nu_measured >= r.nu_bootstrap - 0.02 * r.nu_bootstrap
        assert report.verdict == "average_blowup"
        assert report.eta == 0.0

    def test_neutral_control_reads_fed_pole_mass(self, model_n1):
        # the neutral rows return what is fed in, once the layer separates
        # from the bulk
        with pytest.warns(UserWarning):
            report = magnification_experiment(model_n1, 1.8, 0.2, self.EPS_LIST)
        for row in report.rows:
            if row.eps <= 1e-2:
                assert row.nu_neutral == pytest.approx(1.8, rel=0.02)

    def test_agrees_with_sweep(self, model_n1, monkeypatch):
        # one family driver and one blow-up rule: the experiment's members
        # are the sweep's, bit for bit, with the same records and verdict
        swept = []

        def recording(*args, **kwargs):
            out = sweep_epsilon(*args, **kwargs)
            swept.append(out[1])
            return out

        monkeypatch.setattr(comparison, "sweep_epsilon", recording)
        with pytest.warns(UserWarning):
            report = magnification_experiment(model_n1, 1.8, 0.2, self.EPS_LIST)
        trace, results = sweep_epsilon(model_n1, 1.8, magnifying(0.2), 0.2, self.EPS_LIST)
        assert [r.record for r in report.rows] == list(trace.entries)
        assert report.verdict == trace.verdict == "average_blowup"
        [members] = swept
        assert len(members) == len(results)
        for member, res, row in zip(members, results, report.rows):
            assert np.array_equal(member.phi, res.phi)
            # one pole reading: the member's recorded secant
            assert row.nu_measured == member.diagnostics.lelong.value
            assert row.nu_bootstrap == bootstrap_lelong_bound(member.phi, 0.2, member.rhs)

    def test_empty_eps_list_rejected(self, model_n1):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            magnification_experiment(model_n1, 1.0, 0.3, [])

    @pytest.mark.parametrize("tau0", [0.0, 1.0, np.nan])
    def test_time_outside_open_interval_rejected_first(self, model_n1, tau0):
        # before the eps list is read, so before any member is built
        with pytest.raises(ConfigurationError, match="tau0 must lie in"):
            magnification_experiment(model_n1, 1.8, tau0, [])

    def test_magnifying_dominates_neutral_rowwise(self, model_n1):
        for gamma in (1.0, 1.5):
            with pytest.warns(UserWarning):
                report = magnification_experiment(model_n1, gamma, 0.2, (1e-2, 1e-3))
            for row in report.rows:
                assert row.nu_measured >= row.nu_neutral
