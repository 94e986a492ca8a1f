"""Fixed-point machinery for decoupling-approximation models.

Both the 1901 model ([5], ICNP 2014) and the Bianchi 802.11 model
reduce to a scalar fixed point: the per-slot-event transmission
probability τ of a station must be consistent with the medium-busy /
collision probability γ = 1 − (1 − τ)^(N−1) that the station's backoff
process experiences.

[5] shows that for 1901 the fixed point need not be unique (the
deferral counter couples stations more strongly than plain BEB), so in
addition to :func:`solve_fixed_point` we provide
:func:`find_all_fixed_points`, which scans for every sign change of the
residual.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "ConvergenceError",
    "gamma_from_tau",
    "solve_fixed_point",
    "find_all_fixed_points",
    "damped_iteration",
]

_EPS = 1e-12


class ConvergenceError(RuntimeError):
    """A fixed-point computation failed to converge.

    Carries the numerical evidence so callers (and failure telemetry)
    can report *where* the solver stalled instead of silently using a
    garbage operating point:

    - ``last_iterate`` — the best/last τ the solver held;
    - ``residual`` — |τ − f(γ(τ))| at that iterate;
    - ``iterations`` — how many iterations (or grid points) were spent.

    All solvers raise this by default; pass ``strict=False`` to get the
    old silent behaviour (return the last iterate / an empty root list).
    """

    def __init__(
        self,
        message: str,
        last_iterate: float,
        residual: float,
        iterations: int,
    ) -> None:
        super().__init__(
            f"{message} after {iterations} iteration(s): "
            f"last iterate tau={last_iterate:.12g}, "
            f"residual={residual:.3g}"
        )
        self.last_iterate = float(last_iterate)
        self.residual = float(residual)
        self.iterations = int(iterations)


def gamma_from_tau(tau: float, num_stations: int) -> float:
    """Busy/collision probability seen by one station: 1 − (1 − τ)^(N−1)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if num_stations < 1:
        raise ValueError("num_stations must be >= 1")
    return 1.0 - (1.0 - tau) ** (num_stations - 1)


def _residual(
    tau: float, tau_of_gamma: Callable[[float], float], num_stations: int
) -> float:
    """τ − f(γ(τ)); zero at a consistent operating point."""
    return tau - tau_of_gamma(gamma_from_tau(tau, num_stations))


def _brentq_known_ends(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    **kwargs,
) -> float:
    """Brent's method on the residual over ``[lo, hi]``.

    ``brentq`` evaluates both bracket ends before it iterates; the
    caller already holds those residuals, so they are handed back for
    exactly those τ instead of solving the model twice more.  Every
    iterate, and so the root, is the same as a plain ``brentq``.
    """

    def residual(tau: float) -> float:
        if tau == lo:
            return f_lo
        if tau == hi:
            return f_hi
        return _residual(tau, tau_of_gamma, num_stations)

    return float(brentq(residual, lo, hi, **kwargs))


def solve_fixed_point(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    bracket: tuple = (_EPS, 1.0 - _EPS),
    xtol: float = 1e-12,
    strict: bool = True,
    max_iter: int = 10000,
) -> float:
    """Solve τ = f(1 − (1 − τ)^(N−1)) for τ via Brent's method.

    Parameters
    ----------
    tau_of_gamma:
        The model: attempt probability of one station given the
        busy probability γ it experiences.
    num_stations:
        Number of contending stations ``N``.
    strict:
        If the bracket has no sign change the solver falls back to
        :func:`damped_iteration`; when that fails to converge within
        ``max_iter`` steps, ``strict=True`` raises
        :class:`ConvergenceError` (carrying the last iterate and its
        residual) and ``strict=False`` returns the last iterate.

    For ``N == 1`` there is no coupling: returns ``f(0)`` directly.
    """
    if num_stations == 1:
        return tau_of_gamma(0.0)
    lo, hi = bracket
    f_lo = _residual(lo, tau_of_gamma, num_stations)
    f_hi = _residual(hi, tau_of_gamma, num_stations)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # No sign change over the bracket; fall back to iteration.
        return damped_iteration(
            tau_of_gamma, num_stations, max_iter=max_iter, strict=strict
        )
    return _brentq_known_ends(
        tau_of_gamma, num_stations, lo, hi, f_lo, f_hi, xtol=xtol
    )


def find_all_fixed_points(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    grid_points: int = 2000,
    strict: bool = True,
) -> List[float]:
    """Locate every fixed point by scanning for residual sign changes.

    Useful to reproduce the multiple-fixed-point phenomenon [5]
    discusses for some 1901 configurations.

    A continuous ``tau_of_gamma`` mapping into [0, 1] always has a
    fixed point (Brouwer), so finding none means the scan failed —
    typically a discontinuous or out-of-range model, or a root hugging
    the bracket boundary below grid resolution.  ``strict=True``
    (default) raises :class:`ConvergenceError` in that case, carrying
    the grid point of smallest \\|residual\\|; ``strict=False`` returns
    the empty list.
    """
    taus = np.linspace(_EPS, 1.0 - _EPS, grid_points)
    residuals = np.array(
        [_residual(t, tau_of_gamma, num_stations) for t in taus]
    )
    roots: List[float] = []
    for i in range(len(taus) - 1):
        r0, r1 = residuals[i], residuals[i + 1]
        if r0 == 0.0:
            roots.append(float(taus[i]))
        elif r0 * r1 < 0:
            roots.append(
                _brentq_known_ends(
                    tau_of_gamma, num_stations, taus[i], taus[i + 1], r0, r1
                )
            )
    # Deduplicate near-identical roots.
    unique: List[float] = []
    for root in roots:
        if not unique or abs(root - unique[-1]) > 1e-9:
            unique.append(root)
    if not unique and strict:
        best = int(np.argmin(np.abs(residuals)))
        raise ConvergenceError(
            "no fixed point found on the tau grid",
            last_iterate=float(taus[best]),
            residual=abs(float(residuals[best])),
            iterations=grid_points,
        )
    return unique


def damped_iteration(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 10000,
    strict: bool = True,
) -> float:
    """Damped Picard iteration τ ← (1−α)τ + α·f(γ(τ)).

    Robust fallback when the residual does not change sign on the
    bracket boundary (e.g. degenerate single-slot windows).

    When the iteration has not contracted below ``tol`` after
    ``max_iter`` steps, ``strict=True`` (default) raises
    :class:`ConvergenceError` — returning a non-converged τ silently
    poisons every downstream renewal formula — and ``strict=False``
    restores the old behaviour of returning the last iterate.
    """
    tau = 0.1
    for _ in range(max_iter):
        nxt = tau_of_gamma(gamma_from_tau(tau, num_stations))
        new = (1.0 - damping) * tau + damping * nxt
        if abs(new - tau) < tol:
            return new
        tau = new
    if strict:
        raise ConvergenceError(
            "damped Picard iteration did not converge",
            last_iterate=tau,
            residual=abs(_residual(tau, tau_of_gamma, num_stations)),
            iterations=max_iter,
        )
    return tau
