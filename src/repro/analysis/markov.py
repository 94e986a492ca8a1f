"""Exact per-station Markov chain for the 1901 backoff process.

Under the decoupling approximation, a single station's backoff evolves
as a discrete-time Markov chain over *slot events*: at every event the
medium is busy with a constant probability γ (another station
transmits), and an attempted transmission collides with the same
probability.  This module builds that chain exactly — state space
``A(s)`` (attempting at stage ``s``) ∪ ``B(s, b, j)`` (backing off at
stage ``s`` with ``b ≥ 1`` slots and ``j`` deferrals remaining) — and
computes the stationary attempt probability

    τ(γ) = Σ_s π(A(s)).

The chain encodes the same transition rules as
:class:`repro.core.station.Station` (jump on the (d_s+1)-th busy event
of a stage, BC decrement on every event, immediate attempt on a drawn
BC of 0), so together with the fixed point γ = 1 − (1 − τ)^(N−1) it is
the numerically exact version of the analysis in [5].

The chain's structure does not depend on γ, so it is built once per
:class:`StationChain`: every transition's source, target, probability
factor and whether it is weighted by γ or 1 − γ.  Each γ then costs a
vectorised scatter of those values into the dense system and one dense
LU solve; the scatter keeps the assembly order, so the matrix and the
stationary distribution are bit-identical to assembling state by state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..core.config import CsmaConfig

__all__ = ["StationChain", "ChainSolution"]


@dataclasses.dataclass(frozen=True)
class ChainSolution:
    """Stationary quantities of the per-station chain at a given γ."""

    gamma: float
    #: Total attempt probability per slot event.
    tau: float
    #: Attempt probability contributed by each stage.
    tau_per_stage: Tuple[float, ...]
    #: Stationary probability of being in each stage (incl. attempts).
    stage_occupancy: Tuple[float, ...]
    #: Rate of deferral-counter jumps per slot event.
    jump_rate: float


class StationChain:
    """Builder/solver for the per-station backoff chain.

    Parameters
    ----------
    config:
        The (cw, dc) schedule.  Works for any schedule, including the
        802.11-equivalent configs with non-expiring deferral counters.
    """

    def __init__(self, config: CsmaConfig) -> None:
        self.config = config
        self._index: Dict[Tuple, int] = {}
        self._states: List[Tuple] = []
        m = config.num_stages
        for s in range(m):
            self._add_state(("A", s))
        for s in range(m):
            for b in range(1, config.cw[s]):
                for j in range(config.dc[s] + 1):
                    self._add_state(("B", s, b, j))
        self.num_states = len(self._states)
        self._build_transitions()

    def _add_state(self, state: Tuple) -> None:
        self._index[state] = len(self._states)
        self._states.append(state)

    # -- chain assembly ----------------------------------------------------
    def _redraw_targets(self, stage: int) -> List[Tuple[Tuple, float]]:
        """(state, probability) pairs for a redraw at ``stage``.

        A drawn BC of 0 lands directly in the attempt state; a drawn
        BC of b ≥ 1 starts the stage with a full deferral counter.
        """
        w = self.config.cw[stage]
        d = self.config.dc[stage]
        targets = [(("A", stage), 1.0 / w)]
        targets.extend(
            ((("B", stage, b, d), 1.0 / w) for b in range(1, w))
        )
        return targets

    def _build_transitions(self) -> None:
        """Record every transition once, independent of γ.

        Transition ``k`` has probability ``p · _prob[k]``, where ``p``
        is γ when ``_busy[k]`` and 1 − γ otherwise; ``_flat[k]`` and
        ``_flat_t[k]`` are its flat positions in P and in Pᵀ.  The
        order is the state-by-state assembly order, so scattering the
        values in sequence sums every entry that several transitions
        add to in the same order, bit for bit.
        """
        m = self.config.num_stages
        src: List[int] = []
        dst: List[int] = []
        busy: List[bool] = []
        prob: List[float] = []

        def add(
            state: Tuple, dst_list: List[Tuple[Tuple, float]], on_busy: bool
        ) -> None:
            i = self._index[state]
            for target, q in dst_list:
                src.append(i)
                dst.append(self._index[target])
                busy.append(on_busy)
                prob.append(q)

        for state in self._states:
            if state[0] == "A":
                s = state[1]
                nxt = min(s + 1, m - 1)
                # Success: fresh frame at stage 0.
                add(state, self._redraw_targets(0), False)
                # Collision: redraw at the next stage.
                add(state, self._redraw_targets(nxt), True)
            else:
                _, s, b, j = state
                nxt = min(s + 1, m - 1)
                idle_dst = (
                    [(("A", s), 1.0)]
                    if b == 1
                    else [(("B", s, b - 1, j), 1.0)]
                )
                add(state, idle_dst, False)
                if j == 0:
                    # Deferral expiry: jump without attempting.
                    add(state, self._redraw_targets(nxt), True)
                else:
                    busy_dst = (
                        [(("A", s), 1.0)]
                        if b == 1
                        else [(("B", s, b - 1, j - 1), 1.0)]
                    )
                    add(state, busy_dst, True)
        n = self.num_states
        src_idx = np.array(src, dtype=np.intp)
        dst_idx = np.array(dst, dtype=np.intp)
        self._busy = np.array(busy, dtype=bool)
        self._prob = np.array(prob, dtype=float)
        self._flat = src_idx * n + dst_idx
        self._flat_t = dst_idx * n + src_idx

    def _values(self, gamma: float) -> np.ndarray:
        """Probability of every recorded transition at busy probability γ."""
        if not 0.0 <= gamma < 1.0 + 1e-15:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        gamma = min(max(gamma, 0.0), 1.0)
        return np.where(self._busy, gamma, 1.0 - gamma) * self._prob

    def transition_matrix(self, gamma: float) -> np.ndarray:
        """Dense row-stochastic transition matrix at busy probability γ."""
        n = self.num_states
        flat = np.zeros(n * n)
        np.add.at(flat, self._flat, self._values(gamma))
        return flat.reshape(n, n)

    def stationary_distribution(self, gamma: float) -> np.ndarray:
        """Solve πP = π, Σπ = 1 by a dense linear system."""
        n = self.num_states
        # (P^T - I) π = 0 with the normalization replacing one equation;
        # P^T is scattered directly, in assembly order.
        flat = np.zeros(n * n)
        np.add.at(flat, self._flat_t, self._values(gamma))
        flat[:: n + 1] -= 1.0
        a = flat.reshape(n, n)
        a[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        pi = np.linalg.solve(a, rhs)
        # Numerical cleanup.
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def solve(self, gamma: float) -> ChainSolution:
        """Full stationary solution at busy probability γ."""
        pi = self.stationary_distribution(gamma)
        m = self.config.num_stages
        tau_per_stage = [0.0] * m
        stage_occ = [0.0] * m
        jump_rate = 0.0
        for state, p in zip(self._states, pi):
            if state[0] == "A":
                tau_per_stage[state[1]] += p
                stage_occ[state[1]] += p
            else:
                _, s, _b, j = state
                stage_occ[s] += p
                if j == 0:
                    jump_rate += p * gamma
        return ChainSolution(
            gamma=gamma,
            tau=float(sum(tau_per_stage)),
            tau_per_stage=tuple(tau_per_stage),
            stage_occupancy=tuple(stage_occ),
            jump_rate=float(jump_rate),
        )

    def tau(self, gamma: float) -> float:
        """Attempt probability τ(γ) — the model's core map."""
        return self.solve(gamma).tau
