"""Tests for the exact per-station Markov chain."""

import numpy as np
import pytest

from repro.analysis.markov import StationChain
from repro.analysis.model import Model1901
from repro.core.config import CsmaConfig
from repro.core.parameters import PriorityClass
from repro.core.station import SlotOutcome, Station


def _reference_transition_matrix(chain, gamma):
    """The per-state assembly loop the chain replaced: one ``+=`` per
    transition, in state order — the oracle for bit identity."""
    if not 0.0 <= gamma < 1.0 + 1e-15:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    gamma = min(max(gamma, 0.0), 1.0)
    config = chain.config
    m = config.num_stages
    index = {state: i for i, state in enumerate(chain._states)}
    matrix = np.zeros((len(index), len(index)))

    def redraw(stage):
        w = config.cw[stage]
        d = config.dc[stage]
        return [(("A", stage), 1.0 / w)] + [
            (("B", stage, b, d), 1.0 / w) for b in range(1, w)
        ]

    def add(src, dst_list, p):
        for dst, q in dst_list:
            matrix[index[src], index[dst]] += p * q

    for state in chain._states:
        if state[0] == "A":
            s = state[1]
            add(state, redraw(0), 1.0 - gamma)
            add(state, redraw(min(s + 1, m - 1)), gamma)
        else:
            _, s, b, j = state
            add(
                state,
                [(("A", s) if b == 1 else ("B", s, b - 1, j), 1.0)],
                1.0 - gamma,
            )
            if j == 0:
                add(state, redraw(min(s + 1, m - 1)), gamma)
            else:
                add(
                    state,
                    [(("A", s) if b == 1 else ("B", s, b - 1, j - 1), 1.0)],
                    gamma,
                )
    return matrix


def _reference_stationary_distribution(chain, gamma):
    """``np.linalg.solve`` on the dense ``P^T - I`` system whose last
    equation is replaced by the normalisation row."""
    matrix = _reference_transition_matrix(chain, gamma)
    n = matrix.shape[0]
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, rhs), 0.0, None)
    return pi / pi.sum()


def _oracle_configs():
    presets = [CsmaConfig.default_1901()]
    presets += [CsmaConfig.for_priority(p) for p in PriorityClass]
    presets += [
        CsmaConfig.ieee80211(),
        CsmaConfig.ieee80211(cw_min=8, max_stage=2),
    ]
    presets = [
        c
        for c in dict.fromkeys(presets)
        if sum(1 + (w - 1) * (d + 1) for w, d in zip(c.cw, c.dc))
        <= Model1901.MARKOV_STATE_LIMIT
    ]
    return presets + [
        CsmaConfig(cw=(4,), dc=(0,)),
        CsmaConfig(cw=(8, 16, 32, 64), dc=(0, 0, 0, 0)),
        CsmaConfig(cw=(1, 4, 8), dc=(0, 1, 2)),
    ]


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestChainStructure:
    def test_state_count(self):
        # A(s) per stage + sum_s (cw_s - 1) * (dc_s + 1) backoff states.
        config = CsmaConfig.default_1901()
        chain = StationChain(config)
        expected = 4 + sum(
            (w - 1) * (d + 1) for w, d in zip(config.cw, config.dc)
        )
        assert chain.num_states == expected

    def test_transition_matrix_is_stochastic(self):
        chain = StationChain(CsmaConfig.default_1901())
        for gamma in (0.0, 0.1, 0.5, 0.9):
            matrix = chain.transition_matrix(gamma)
            assert np.allclose(matrix.sum(axis=1), 1.0)
            assert (matrix >= 0).all()

    def test_bad_gamma_rejected(self):
        chain = StationChain(CsmaConfig.default_1901())
        with pytest.raises(ValueError):
            chain.transition_matrix(-0.1)

    def test_stationary_distribution_normalized(self):
        chain = StationChain(CsmaConfig.default_1901())
        pi = chain.stationary_distribution(0.2)
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()


class TestBitIdentity:
    """The chain's sparse scatter reproduces the dense per-state
    assembly bit for bit, so every model output is unchanged."""

    GAMMAS = (0.0, 1e-12, 0.3, 0.77, 1.0)

    @pytest.mark.parametrize(
        "config", _oracle_configs(), ids=lambda c: c.describe()
    )
    def test_transition_matrix_and_stationary_distribution(self, config):
        chain = StationChain(config)
        for gamma in self.GAMMAS:
            expected = _reference_transition_matrix(chain, gamma)
            got = chain.transition_matrix(gamma)
            assert got.shape == expected.shape
            assert np.array_equal(_bits(got), _bits(expected)), gamma
            expected_pi = _reference_stationary_distribution(chain, gamma)
            got_pi = chain.stationary_distribution(gamma)
            assert np.array_equal(_bits(got_pi), _bits(expected_pi)), gamma


class TestTauValues:
    def test_tau_at_zero_gamma_single_stage(self):
        # Never busy -> station always transmits from stage 0:
        # E[events/frame] = (CW0+1)/2, so τ = 2/(CW0+1).
        chain = StationChain(CsmaConfig(cw=(8,), dc=(0,)))
        assert chain.tau(0.0) == pytest.approx(2 / 9)

    def test_tau_at_zero_gamma_default(self):
        # With γ=0 higher stages are never visited.
        chain = StationChain(CsmaConfig.default_1901())
        assert chain.tau(0.0) == pytest.approx(2 / 9)

    def test_tau_decreasing_in_gamma(self):
        chain = StationChain(CsmaConfig.default_1901())
        taus = [chain.tau(g) for g in (0.0, 0.2, 0.4, 0.6)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_solution_extras(self):
        chain = StationChain(CsmaConfig.default_1901())
        sol = chain.solve(0.3)
        assert sol.tau == pytest.approx(sum(sol.tau_per_stage))
        assert sum(sol.stage_occupancy) == pytest.approx(1.0)
        assert sol.jump_rate > 0

    def test_no_jumps_when_deferral_unreachable(self):
        chain = StationChain(CsmaConfig.ieee80211(cw_min=8, max_stage=2))
        # Exactly zero up to the linear solver's round-off: the j=0
        # states exist but are unreachable (b < cw busy events fit).
        assert chain.solve(0.4).jump_rate == pytest.approx(0.0, abs=1e-12)


class TestChainMatchesFsm:
    """The chain must agree with the Station FSM driven by i.i.d.
    busy slots — the decisive semantic cross-check."""

    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_tau_matches_monte_carlo(self, gamma):
        config = CsmaConfig.default_1901()
        chain = StationChain(config)
        station = Station(config, np.random.default_rng(1))
        medium = np.random.default_rng(2)
        attempts = events = 0
        for _ in range(200_000):
            attempted = station.step()
            events += 1
            if attempted:
                attempts += 1
                if medium.random() < gamma:
                    station.resolve(SlotOutcome.COLLISION)
                else:
                    station.resolve(SlotOutcome.SUCCESS, won=True)
                    station.reset_for_new_frame()
            elif medium.random() < gamma:
                station.resolve(SlotOutcome.COLLISION)
            else:
                station.resolve(SlotOutcome.IDLE)
        mc_tau = attempts / events
        assert chain.tau(gamma) == pytest.approx(mc_tau, rel=0.03)


class TestStageDistributionVsSimulation:
    def test_attempt_stage_split_shows_capture_bias(self):
        """Decoupling error, stage-resolved: both model and simulation
        put most attempts at stage 0 with monotonically decreasing
        shares over stages 0-2, but the *simulation* concentrates even
        more at stage 0 — the capture effect (a winner camps at stage
        0 while losers defer without attempting; cf. experiment X13).
        """
        from repro.analysis.fixed_point import gamma_from_tau, solve_fixed_point
        from repro.core import ScenarioConfig, SlotSimulator

        n = 3
        config = CsmaConfig.default_1901()
        chain = StationChain(config)
        tau = solve_fixed_point(chain.tau, n)
        solution = chain.solve(gamma_from_tau(tau, n))
        model_split = np.array(solution.tau_per_stage) / solution.tau

        scenario = ScenarioConfig.homogeneous(
            num_stations=n, sim_time_us=2e7, seed=6
        )
        result = SlotSimulator(scenario, record_trace=True).run()
        histogram = np.array(
            result.trace.stage_at_attempt_counts(config.num_stages),
            dtype=float,
        )
        sim_split = histogram / histogram.sum()

        # Shared shape: stage 0 dominates, early stages decrease.
        for split in (model_split, sim_split):
            assert split[0] > 0.4
            assert split[0] > split[1] > split[2]
        # The capture bias: simulation overweights stage 0.
        assert sim_split[0] > model_split[0] + 0.05
