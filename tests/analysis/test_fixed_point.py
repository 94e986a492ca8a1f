"""Tests for the fixed-point machinery."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.analysis.fixed_point import (
    _EPS,
    ConvergenceError,
    _residual,
    damped_iteration,
    find_all_fixed_points,
    gamma_from_tau,
    solve_fixed_point,
)


def _counted(tau_of_gamma):
    """Wrap ``tau_of_gamma``; the wrapper's ``calls`` lists every γ."""

    def wrapper(gamma):
        wrapper.calls.append(gamma)
        return tau_of_gamma(gamma)

    wrapper.calls = []
    return wrapper


def _reference_roots(tau_of_gamma, num_stations, grid_points):
    """The scan with a plain ``brentq`` per sign change, which
    evaluates both bracket ends again.  Returns the roots and the
    number of ``brentq`` calls."""
    taus = np.linspace(_EPS, 1.0 - _EPS, grid_points)
    residuals = [_residual(t, tau_of_gamma, num_stations) for t in taus]
    roots = []
    brackets = 0
    for i in range(len(taus) - 1):
        r0, r1 = residuals[i], residuals[i + 1]
        if r0 == 0.0:
            roots.append(float(taus[i]))
        elif r0 * r1 < 0:
            brackets += 1
            roots.append(
                float(
                    brentq(
                        _residual,
                        taus[i],
                        taus[i + 1],
                        args=(tau_of_gamma, num_stations),
                    )
                )
            )
    unique = []
    for root in roots:
        if not unique or abs(root - unique[-1]) > 1e-9:
            unique.append(root)
    return unique, brackets


class TestGammaFromTau:
    def test_single_station_no_coupling(self):
        assert gamma_from_tau(0.5, 1) == 0.0

    def test_two_stations(self):
        assert gamma_from_tau(0.3, 2) == pytest.approx(0.3)

    def test_many_stations(self):
        assert gamma_from_tau(0.1, 11) == pytest.approx(1 - 0.9**10)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            gamma_from_tau(1.5, 2)
        with pytest.raises(ValueError):
            gamma_from_tau(0.5, 0)

    def test_monotone_in_tau(self):
        values = [gamma_from_tau(t, 5) for t in (0.1, 0.2, 0.4)]
        assert values[0] < values[1] < values[2]


class TestSolveFixedPoint:
    def test_constant_map(self):
        # f(γ) = 0.2 regardless: τ* = 0.2.
        tau = solve_fixed_point(lambda g: 0.2, 5)
        assert tau == pytest.approx(0.2)

    def test_n_equals_one_shortcut(self):
        assert solve_fixed_point(lambda g: 0.7, 1) == 0.7

    def test_decreasing_map_unique_root(self):
        # f(γ) = 0.5·(1−γ): strictly decreasing, unique fixed point.
        tau = solve_fixed_point(lambda g: 0.5 * (1 - g), 2)
        # τ = 0.5(1−τ) → τ = 1/3.
        assert tau == pytest.approx(1 / 3, abs=1e-9)

    def test_agrees_with_damped_iteration(self):
        f = lambda g: 0.3 * (1 - g) ** 2
        brent = solve_fixed_point(f, 4)
        damped = damped_iteration(f, 4)
        assert brent == pytest.approx(damped, abs=1e-6)


class TestFindAllFixedPoints:
    def test_single_root_found(self):
        roots = find_all_fixed_points(lambda g: 0.5 * (1 - g), 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1 / 3, abs=1e-6)

    def test_multiple_roots_synthetic(self):
        # Craft a non-monotone map with three crossings for N=2
        # (γ == τ there): f(γ) = γ + 0.1·sin(3π·γ) has roots where
        # sin(3πγ) = 0, i.e. γ ∈ {1/3, 2/3} plus endpoints excluded.
        import math

        f = lambda g: min(max(g + 0.1 * math.sin(3 * math.pi * g), 0.0), 1.0)
        roots = find_all_fixed_points(f, 2)
        assert len(roots) >= 2

    def test_roots_are_fixed_points(self):
        f = lambda g: 0.4 * (1 - g) ** 3
        for root in find_all_fixed_points(f, 3):
            assert root == pytest.approx(
                f(gamma_from_tau(root, 3)), abs=1e-6
            )

    def test_1901_decoupling_fixed_point_is_unique(self):
        """τ(γ) is strictly decreasing for every (cw, dc) schedule, so
        the scalar decoupling fixed point is always unique — the
        multiple-equilibria phenomenon [5] discusses lives in the
        coupled dynamics (short-term capture), not in this map."""
        from repro.analysis.recursive import RecursiveModel
        from repro.core.config import CsmaConfig

        configs = [
            CsmaConfig.default_1901(),
            CsmaConfig(cw=(8, 16, 32, 64), dc=(15, 15, 15, 15)),
            CsmaConfig(cw=(2, 1024), dc=(0, 1023)),
            CsmaConfig(cw=(64,) * 4, dc=(0, 1, 3, 15)),
        ]
        for config in configs:
            model = RecursiveModel(config)
            for n in (2, 10, 50):
                roots = find_all_fixed_points(
                    model.tau, n, grid_points=300
                )
                assert len(roots) == 1, (config, n, roots)


class TestEndpointReuse:
    """The solvers hand ``brentq`` the bracket residuals they already
    hold: fewer model solves, bit-identical roots."""

    def test_solve_fixed_point_solves_each_tau_once(self):
        from repro.analysis.model import Model1901

        model = Model1901()
        counted = _counted(model.tau_of_gamma)
        tau = solve_fixed_point(counted, 50)
        assert len(counted.calls) == 11
        assert len(set(counted.calls)) == len(counted.calls)
        plain = brentq(
            _residual,
            _EPS,
            1.0 - _EPS,
            args=(model.tau_of_gamma, 50),
            xtol=1e-12,
        )
        assert tau == plain

    @pytest.mark.parametrize(
        "tau_of_gamma, num_stations, grid_points",
        [
            (lambda g: 0.5 * (1 - g), 2, 2000),
            (lambda g: 0.4 * (1 - g) ** 3, 3, 2000),
            (
                lambda g: min(
                    max(g + 0.1 * math.sin(3 * math.pi * g), 0.0), 1.0
                ),
                2,
                2000,
            ),
            ("recursive", 5, 200),
            ("recursive", 50, 200),
        ],
    )
    def test_find_all_fixed_points_roots_unchanged(
        self, tau_of_gamma, num_stations, grid_points
    ):
        if tau_of_gamma == "recursive":
            from repro.analysis.model import Model1901

            tau_of_gamma = Model1901(method="recursive").tau_of_gamma
        counted = _counted(tau_of_gamma)
        roots = find_all_fixed_points(
            counted, num_stations, grid_points=grid_points
        )
        reference = _counted(tau_of_gamma)
        expected, brackets = _reference_roots(
            reference, num_stations, grid_points
        )
        assert roots
        assert roots == expected
        # Each bracket's two ends come from the grid, not a new solve.
        assert len(counted.calls) == len(reference.calls) - 2 * brackets


class TestConvergenceError:
    """Non-convergence is a structured error, not a silent bad value."""

    # f(γ) = 1 − γ with damping 1 oscillates 0.1 ↔ 0.9 forever (N=2,
    # where γ == τ).
    @staticmethod
    def _flip(gamma):
        return 1.0 - gamma

    def test_damped_iteration_raises_with_evidence(self):
        with pytest.raises(ConvergenceError) as err:
            damped_iteration(self._flip, 2, damping=1.0, max_iter=50)
        exc = err.value
        assert exc.iterations == 50
        assert 0.0 <= exc.last_iterate <= 1.0
        assert exc.residual == pytest.approx(0.8)
        assert "50 iteration" in str(exc)
        assert "residual" in str(exc)
        assert isinstance(exc, RuntimeError)

    def test_damped_iteration_strict_false_returns_last_iterate(self):
        tau = damped_iteration(
            self._flip, 2, damping=1.0, max_iter=50, strict=False
        )
        assert tau in (pytest.approx(0.1), pytest.approx(0.9))

    def test_solve_fixed_point_threads_strict_to_fallback(self):
        # f ≡ 0 has the same residual sign at both bracket ends, so
        # solve_fixed_point falls back to damped iteration; τ halves
        # each step and cannot reach tol=1e-12 in 3 steps.
        with pytest.raises(ConvergenceError):
            solve_fixed_point(lambda g: 0.0, 2, max_iter=3)
        tau = solve_fixed_point(lambda g: 0.0, 2, max_iter=3, strict=False)
        assert tau == pytest.approx(0.1 * 0.5**3)
        # With the default budget the same fallback converges fine.
        assert solve_fixed_point(lambda g: 0.0, 2) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_find_all_fixed_points_raises_when_scan_finds_nothing(self):
        # f ≡ 1 only touches τ = 1 exactly, outside the open grid: the
        # residual τ − 1 never changes sign, so the scan comes up dry.
        with pytest.raises(ConvergenceError) as err:
            find_all_fixed_points(lambda g: 1.0, 3, grid_points=100)
        exc = err.value
        assert exc.iterations == 100
        # The best grid point hugs τ = 1 where |residual| is smallest.
        assert exc.last_iterate > 0.9
        assert exc.residual < 0.05

    def test_find_all_fixed_points_strict_false_returns_empty(self):
        roots = find_all_fixed_points(
            lambda g: 1.0, 3, grid_points=100, strict=False
        )
        assert roots == []

    def test_model_call_sites_annotate_the_error(self, monkeypatch):
        from repro.analysis import bianchi, delay, model
        from repro.analysis.bianchi import Bianchi80211Model
        from repro.analysis.delay import DelayModel
        from repro.analysis.model import Model1901

        def explode(*args, **kwargs):
            raise ConvergenceError(
                "damped Picard iteration did not converge",
                last_iterate=0.3,
                residual=0.01,
                iterations=10000,
            )

        for module, make in (
            (model, lambda: Model1901()),
            (bianchi, lambda: Bianchi80211Model()),
            (delay, lambda: DelayModel()),
        ):
            monkeypatch.setattr(module, "solve_fixed_point", explode)
            with pytest.raises(ConvergenceError, match="N=5") as err:
                make().solve(5)
            assert err.value.last_iterate == 0.3
            assert err.value.iterations == 10000
            assert isinstance(err.value.__cause__, ConvergenceError)
