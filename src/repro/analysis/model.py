"""High-level analytical model of the 1901 CSMA/CA network ([5]).

:class:`Model1901` glues together a per-station solver (the exact
Markov chain or the stage recursion), the decoupling fixed point and
the renewal throughput formulas, exposing the quantities Figure 2
plots as the "Analysis" curve.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.config import CsmaConfig, TimingConfig
from .fixed_point import (
    ConvergenceError,
    find_all_fixed_points,
    solve_fixed_point,
)
from .markov import StationChain
from .recursive import RecursiveModel
from .throughput import NetworkPrediction, network_prediction

__all__ = ["Model1901"]


class Model1901:
    """Decoupling-approximation model for N saturated 1901 stations.

    Parameters
    ----------
    config:
        The (cw, dc) schedule (default: CA0/CA1 of Table 1).
    timing:
        Slot/transmission durations (default: Table 3 values).
    method:
        ``"markov"`` — numerically exact per-station chain (default);
        ``"recursive"`` — the stage-recursion formulas.  Both encode
        the same process; tests assert they agree.  Wide schedules
        (e.g. 802.11-like windows up to 1024) would make the dense
        chain enormous, so ``"markov"`` silently falls back to the
        equivalent recursion above ``MARKOV_STATE_LIMIT`` states.

        Cost: a solve evaluates τ(γ) about a dozen times.  For the
        default schedule (1173 chain states) each ``"markov"``
        evaluation is one dense LU solve, about 40 ms on a 2-vCPU Xeon,
        so ``solve(50)`` takes about 0.5 s there; ``"recursive"``
        solves the same point in about 15 ms.

    Examples
    --------
    >>> model = Model1901()
    >>> p2 = model.collision_probability(2)
    >>> p7 = model.collision_probability(7)
    >>> 0.0 < p2 < p7 < 0.35
    True
    """

    #: Above this many chain states, "markov" falls back to the
    #: (numerically identical) stage recursion.
    MARKOV_STATE_LIMIT = 20_000

    def __init__(
        self,
        config: Optional[CsmaConfig] = None,
        timing: Optional[TimingConfig] = None,
        method: str = "markov",
    ) -> None:
        self.config = config if config is not None else CsmaConfig.default_1901()
        self.timing = timing if timing is not None else TimingConfig()
        if method == "markov":
            chain_states = sum(
                1 + (w - 1) * (d + 1)
                for w, d in zip(self.config.cw, self.config.dc)
            )
            if chain_states > self.MARKOV_STATE_LIMIT:
                method = "recursive"
                self._solver = RecursiveModel(self.config)
            else:
                self._solver = StationChain(self.config)
        elif method == "recursive":
            self._solver = RecursiveModel(self.config)
        else:
            raise ValueError(f"unknown method {method!r}")
        self.method = method

    def tau_of_gamma(self, gamma: float) -> float:
        """Per-station attempt probability given busy probability γ."""
        return self._solver.tau(gamma)

    def solve(self, num_stations: int) -> NetworkPrediction:
        """Solve the fixed point and evaluate the network formulas.

        Raises :class:`ConvergenceError` (annotated with the model and
        ``N``) if the solver cannot find the operating point.
        """
        try:
            tau = solve_fixed_point(self.tau_of_gamma, num_stations)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"1901 model ({self.method}) failed for N={num_stations}",
                last_iterate=exc.last_iterate,
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        return network_prediction(tau, num_stations, self.timing)

    def fixed_points(self, num_stations: int) -> List[NetworkPrediction]:
        """All decoupling fixed points (possibly more than one, [5])."""
        try:
            taus = find_all_fixed_points(self.tau_of_gamma, num_stations)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"1901 model ({self.method}) fixed-point scan failed "
                f"for N={num_stations}",
                last_iterate=exc.last_iterate,
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        return [
            network_prediction(tau, num_stations, self.timing)
            for tau in taus
        ]

    # -- convenience scalar accessors -------------------------------------
    def collision_probability(self, num_stations: int) -> float:
        """γ at the operating point for ``num_stations`` stations."""
        return self.solve(num_stations).collision_probability

    def normalized_throughput(self, num_stations: int) -> float:
        """Normalized saturation throughput for ``num_stations``."""
        return self.solve(num_stations).normalized_throughput

    def mean_access_delay_us(self, num_stations: int) -> float:
        """Mean saturated MAC access delay (µs)."""
        return self.solve(num_stations).mean_access_delay_us
