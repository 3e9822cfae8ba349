"""Integrability thresholds, germ classification, stalk extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConfigurationError,
    EquationKind,
    KahlerModel,
    PotentialSequence,
    SGrid,
    StalkDescriptor,
    build_dirac_rhs,
    constant_rhs,
    germ_integral,
    magnifying,
    newton_solve,
    stalk_from_sequence,
    sweep_epsilon,
    trivial_lemma_report,
)
from radialma import multiplier
from radialma.rhs import LelongEstimate
from radialma.multiplier import BORDERLINE_TOL

from oracles import stalk_per_germ


def slope_potential(model, nu, pivot=0.0):
    """phi with left slope nu, flattening past the pivot."""
    s = model.grid.nodes
    return nu * np.minimum(s - pivot, 0.0)


class TestGermIntegral:
    def test_threshold_example(self, model_n1):
        # left slope 3.5 at tau = 1: order 3 integrable, order 2 not
        phi = slope_potential(model_n1, 3.5)
        g3 = germ_integral(3, phi, 1.0, constant_rhs(model_n1))
        g2 = germ_integral(2, phi, 1.0, constant_rhs(model_n1))
        assert g3.finite and math.isfinite(g3.value)
        assert not g2.finite and g2.value == math.inf
        assert g3.tail_exponent == pytest.approx(0.5)
        assert g2.tail_exponent == pytest.approx(-0.5)

    def test_weak_singularity_keeps_unit_germ(self, model_n1):
        # tau * nu < n: the trivial germ (order 0) is already integrable
        phi = slope_potential(model_n1, 1.2)
        assert germ_integral(0, phi, 0.5, constant_rhs(model_n1)).finite

    def test_borderline_is_divergent(self, model_n1):
        # tau * nu = n exactly: log-divergent, classified divergent
        phi = slope_potential(model_n1, 2.0)
        g = germ_integral(0, phi, 0.5, constant_rhs(model_n1))
        assert not g.finite
        assert g.tail_exponent == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_vanishing_order(self, model_n1):
        phi = slope_potential(model_n1, 2.5)
        vals = []
        for k in range(4):
            g = germ_integral(k, phi, 0.7, constant_rhs(model_n1))
            vals.append(g.value)
        finite = [v for v in vals if math.isfinite(v)]
        assert all(b <= a for a, b in zip(finite, finite[1:]))

    def test_monotone_in_time(self, model_n1):
        # for phi <= 0 near the pole, integrability at larger tau implies it
        # at smaller tau
        phi = slope_potential(model_n1, 2.5)
        for k in (0, 1, 2, 3):
            for t1, t2 in ((0.2, 0.5), (0.3, 0.8)):
                if germ_integral(k, phi, t2, constant_rhs(model_n1)).finite:
                    assert germ_integral(k, phi, t1, constant_rhs(model_n1)).finite

    def test_lattice_classification_exact(self, model_n1):
        # 20-point (k, tau*nu) lattice, classification matches k + n > tau*nu
        # exactly, including borderline integer cases
        cases = []
        for k in (0, 1, 2, 3):
            for p in (0.5, 1.0, float(k + 1), k + 1.5, k + 0.25):
                cases.append((k, p))
        cases = cases[:20]
        tau = 0.5
        for k, p in cases:
            nu = p / tau
            phi = slope_potential(model_n1, nu)
            g = germ_integral(k, phi, tau, constant_rhs(model_n1))
            assert g.finite == (k + 1 > p), (k, p)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5])
    def test_value_includes_whole_tail(self, model_n1, alpha):
        # phi = nu min(s, 0): the integrand is e^{alpha s} on s <= 0, whose
        # integral is 1/alpha; at alpha = 0.05 a tail cut at s_min - 20
        # misses e^{-3} of it
        tau = 0.5
        phi = slope_potential(model_n1, (model_n1.n - alpha) / tau)
        g = germ_integral(0, phi, tau, constant_rhs(model_n1))
        assert g.finite
        assert g.value == pytest.approx(1.0 / alpha, rel=1e-4)

    @pytest.mark.parametrize("s_min", [0.0, -0.25])
    def test_pole_side_of_one_node_spans_no_interval(self, s_min):
        # phi = 0 from s_min on a grid of step 0.25: the tail e^{n s_min} /
        # alpha, plus the trapezoid over the pole-side nodes, which is empty
        # for the one node s = 0, not that node's h halved at both ends
        m = KahlerModel(1, 2.0, SGrid(s_min, s_min + 20.0, 81))
        g = germ_integral(0, np.zeros(81), 0.5, constant_rhs(m))
        tail = math.exp(s_min) / g.tail_exponent
        trapezoid = 0.125 * (math.exp(s_min) + 1.0) if s_min < 0.0 else 0.0
        assert g.value == pytest.approx(tail + trapezoid, rel=1e-15)

    def test_pole_slope_is_the_diagnostics_reading(self, model_n1):
        # nu read at the secant nodes equals the anchored Lelong estimate of
        # the whole potential, bit for bit
        from oracles import diagnostics_per_call
        rhs = build_dirac_rhs(1.8, 1e-3, model_n1)
        phi = newton_solve(model_n1, rhs, magnifying(0.6)).phi
        nu = diagnostics_per_call(phi, rhs).lelong.value
        assert germ_integral(1, phi, 0.6, rhs).tail_exponent == 1 + 1 - 0.6 * nu
        seq = PotentialSequence(model_n1, ((phi, 0.6, rhs),))
        assert stalk_from_sequence(seq).tau_nu_product == 0.6 * nu

    def test_integrable_past_the_double_range(self, model_n1):
        # phi = -1e4 puts e^{-tau phi} past the largest double, but the pole
        # slope is 0, so alpha = 1: the germ is integrable with value inf
        phi = np.full(model_n1.grid.points, -1e4)
        g = germ_integral(0, phi, 0.5, constant_rhs(model_n1))
        assert g.finite and g.value == math.inf
        assert g.tail_exponent == pytest.approx(1.0, abs=1e-9)
        seq = PotentialSequence(model_n1, ((phi, 0.5, constant_rhs(model_n1)),))
        assert stalk_from_sequence(seq).k_min == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_phi_rejected(self, model_n1, bad):
        phi = np.zeros(model_n1.grid.points)
        phi[100] = bad
        flat = constant_rhs(model_n1)
        with pytest.raises(ConfigurationError, match="finite"):
            germ_integral(0, phi, 0.5, flat)
        with pytest.raises(ConfigurationError, match="finite"):
            stalk_from_sequence(PotentialSequence(model_n1, ((phi, 0.5, flat),)))


class TestStalk:
    def test_flat_sequence_is_trivial(self, model_n1):
        zero = np.zeros(model_n1.grid.points)
        flat = constant_rhs(model_n1)
        seq = PotentialSequence(model_n1, tuple((zero, t, flat) for t in (0.3, 0.5, 0.7)))
        stalk = stalk_from_sequence(seq)
        assert stalk.k_min == 0
        assert not stalk.nontrivial
        assert not stalk.equals_maximal_ideal

    def test_synthetic_order_three(self, model_n1):
        # tau * nu -> 3.5 with n = 1 forces vanishing to order 3
        entries = []
        for tau, nu in ((0.5, 6.6), (0.5, 6.9), (0.5, 7.0)):
            entries.append((slope_potential(model_n1, nu), tau, constant_rhs(model_n1)))
        stalk = stalk_from_sequence(PotentialSequence(model_n1, tuple(entries)))
        assert stalk.k_min == 3
        assert stalk.nontrivial
        assert not stalk.equals_maximal_ideal
        assert stalk.tau_nu_product == pytest.approx(3.5, rel=1e-6)

    def test_maximal_ideal_case_flagged(self, model_n1):
        entries = [(slope_potential(model_n1, 3.0), 0.5, constant_rhs(model_n1))]
        stalk = stalk_from_sequence(PotentialSequence(model_n1, tuple(entries)))
        assert stalk.k_min == 1
        assert stalk.equals_maximal_ideal

    def test_reordering_invariance(self, model_n1):
        flat = constant_rhs(model_n1)
        entries = [(slope_potential(model_n1, nu), 0.5, flat) for nu in (2.0, 5.0, 3.0)]
        a = stalk_from_sequence(PotentialSequence(model_n1, tuple(entries)))
        b = stalk_from_sequence(PotentialSequence(model_n1, tuple(reversed(entries))))
        assert a == b

    def test_solved_sequence(self, model_n1):
        # a real amplifying sweep at small tau produces a trivial stalk: the
        # slope saturates at the model mass and tau stays below 1/d
        trace, results = sweep_epsilon(model_n1, 1.8, magnifying(0.2), 0.2,
                                       (1e-2, 1e-3))
        entries = []
        for eps, res in zip((1e-2, 1e-3), results):
            rhs = build_dirac_rhs(1.8, eps, model_n1)
            entries.append((res.phi, 0.2, rhs))
        stalk = stalk_from_sequence(PotentialSequence(model_n1, tuple(entries)))
        assert stalk.k_min == 0
        assert stalk.tau_nu_product == pytest.approx(0.4, abs=0.02)


class TestSequenceFamilies:
    """Each entry carries the family its phi solves for, built on the
    sequence's model, and the stalk reads each pole with that family."""

    def test_a_pole_is_read_with_its_own_family(self, model_n1):
        # n = 1, d = 2, gamma = 1, eps = 1e-3, magnifying at tau = 0.8: read
        # above its layer the pole gives tau nu = 1.6 and k_min = 1, while
        # the smooth window at s_min reads the flat part below the layer
        rhs = build_dirac_rhs(1.0, 1e-3, model_n1)
        phi = newton_solve(model_n1, rhs, magnifying(0.8)).phi
        stalk = stalk_from_sequence(PotentialSequence(model_n1, ((phi, 0.8, rhs),)))
        assert stalk.k_min == 1
        assert stalk.tau_nu_product == pytest.approx(1.6, abs=0.01)
        with pytest.raises(ConfigurationError,
                           match="entry 0: right-hand side must be an RhsFamily, got None"):
            PotentialSequence(model_n1, ((phi, 0.8, None),))

    @pytest.mark.parametrize("other,message", [
        (KahlerModel(2, 2.0), "right-hand side built for n = 2, d = 2, solved on n = 1"),
        (KahlerModel(1, 3.0), "right-hand side built for n = 1, d = 3, solved on n = 1"),
        (KahlerModel(1, 2.0, SGrid(-40.0, 40.0, 2001)), "grids do not match")],
        ids=["n", "d", "grid"])
    def test_entry_of_another_model_rejected(self, model_n1, other, message):
        zero = np.zeros(model_n1.grid.points)
        flat = constant_rhs(model_n1)
        with pytest.raises(ConfigurationError, match=f"^entry 1: {message}"):
            PotentialSequence(model_n1, ((zero, 0.5, flat), (zero, 0.5, constant_rhs(other))))


MODELS = {n: KahlerModel(n, n + 1.0) for n in (1, 2, 3, 4)}


class TestOneIntegrabilityRule:
    """The stalk is solved from k + n > tau nu, not searched for through
    germ integrals; where the search through k <= 24 returns, both agree."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 4), data=st.data())
    def test_agrees_with_the_germ_search_on_slope_potentials(self, n, data):
        model = MODELS[n]
        # half-integer slopes at tau = 0.5 put tau nu on the integer borderline
        nu = st.one_of(st.floats(0.0, 50.0), st.integers(0, 100).map(lambda k: k / 2.0))
        tau = st.one_of(st.floats(0.01, 0.99), st.just(0.5))
        entries = data.draw(st.lists(st.tuples(nu, tau, st.floats(-5.0, 5.0)),
                                     min_size=1, max_size=4))
        seq = PotentialSequence(model, tuple(
            (slope_potential(model, v, pivot), t, constant_rhs(model)) for v, t, pivot in entries))
        stalk = stalk_from_sequence(seq)
        reference = stalk_per_germ(seq)
        if reference is not None:
            assert stalk == reference
        else:
            assert stalk.k_min > 24

    @pytest.mark.parametrize("n,d,gamma,kind", [
        (1, 2.0, 1.8, magnifying(0.2)), (1, 2.0, 1.8, magnifying(0.6)),
        (1, 2.0, 1.8, magnifying(0.9)), (2, 3.0, 2.7, magnifying(0.5)),
        (2, 3.0, 2.7, magnifying(0.9)),
        # neutral members solve at every tau, so tau nu passes n + 1
        *[(n, d, 0.9 * d, EquationKind("neutral", 0.9)) for n, d in ((1, 8.0), (2, 8.0), (3, 4.0))],
    ])
    def test_agrees_with_the_germ_search_on_a_solved_sweep(self, n, d, gamma, kind):
        model = KahlerModel(n, d)
        tau = kind.t
        _, results = sweep_epsilon(model, gamma, kind, tau, (1e-2, 1e-3))
        assert all(res.converged for res in results)
        seq = PotentialSequence(model, tuple((res.phi, tau, res.rhs) for res in results))
        assert stalk_from_sequence(seq) == stalk_per_germ(seq)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(1, 4), whole=st.integers(0, 60),
           offset=st.sampled_from([-3e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 3e-9]),
           ulps=st.integers(-2, 2))
    def test_least_order_is_exact_at_the_borderline(self, n, whole, offset, ulps):
        # the pole reading is set so that tau nu is exactly the drawn product
        product = float(whole) + offset
        for _ in range(abs(ulps)):
            product = np.nextafter(product, math.copysign(math.inf, ulps))
        product = max(float(product), 0.0)
        least = next(k for k in range(100) if k + n - product > BORDERLINE_TOL)
        reading = LelongEstimate(2.0 * product, 5.0, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiplier, "pole_lelong", lambda *args: reading)
            model = MODELS[n]
            seq = PotentialSequence(model, ((np.zeros(model.grid.points), 0.5,
                                             constant_rhs(model)),))
            stalk = stalk_from_sequence(seq)
        assert stalk == StalkDescriptor(k_min=least, tau_nu_product=product)

    def test_huge_pole_slope_needs_no_germ_integral(self, model_n1, monkeypatch):
        # tau nu = 5e8: the least order is solved, not searched for
        def no_quadrature(*args):
            raise AssertionError("the stalk evaluated a germ integral")
        monkeypatch.setattr(multiplier, "germ_integral", no_quadrature)
        seq = PotentialSequence(model_n1, ((slope_potential(model_n1, 1e9), 0.5,
                                            constant_rhs(model_n1)),))
        stalk = stalk_from_sequence(seq)
        p = stalk.tau_nu_product
        assert p == pytest.approx(5e8, rel=1e-9)
        assert stalk.k_min + 1 - p > BORDERLINE_TOL >= stalk.k_min - 1 + 1 - p


class TestTrivialLemmaReport:
    def test_all_hypotheses_pass(self):
        stalk = StalkDescriptor(k_min=2, tau_nu_product=2.5)
        rep = trivial_lemma_report(stalk, curvature_margin=1.5)
        assert rep.nontrivial_ok and rep.curvature_bound_ok and rep.not_maximal_ideal_ok
        assert rep.conclusion == "deferred"
        assert rep.notes == ()

    def test_missing_curvature_bound(self):
        stalk = StalkDescriptor(k_min=2, tau_nu_product=2.5)
        rep = trivial_lemma_report(stalk, curvature_margin=0.0)
        assert not rep.curvature_bound_ok
        assert rep.nontrivial_ok and rep.not_maximal_ideal_ok
        assert any("elliptic" in note for note in rep.notes)

    def test_maximal_ideal_caveat(self):
        stalk = StalkDescriptor(k_min=1, tau_nu_product=1.5)
        rep = trivial_lemma_report(stalk, curvature_margin=1.0)
        assert not rep.not_maximal_ideal_ok
        assert any("maximal ideal" in note for note in rep.notes)
