"""The validity-map harness: sweep, flag, pin-check.

:func:`build_validity_map` compares the analytical 1901 model against
batch-kernel simulations over a grid of ``(regime, N)`` cells, each
cell aggregating several independently seeded repetitions, and flags
every cell against per-regime error *pins*.

Execution routes through :class:`~repro.runner.batch.BatchRunner`:
all cells of the map are simulated in one lockstep kernel dispatch
(sharded by ``chunk_size``), every point is cached under the scalar
runner's cache key — so an interrupted sweep resumes from the cache,
and a map regenerated with a different ``counts`` subset reuses every
overlapping point.

Seeding is position-independent: the point for regime ``g`` (registry
index) at ``N`` stations, repetition ``r``, draws from
``SeedSpec(root_seed, g * 10_000 + N, r)``.  Adding counts or
selecting regime subsets never changes any existing cell's numbers.

Pins (``default_pins`` / a committed JSON file) give each regime a
ceiling on the collision-probability error and the relative throughput
error.  A cell is *flagged* when it exceeds its ceiling or when an
error is undefined (``NaN``).  :func:`check_pins` re-derives the flags
of a saved artifact against a pins file — the CI gate that catches
silent model/simulator drift.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence

from ..core.config import CsmaConfig, TimingConfig
from ..core.results import aggregate
from .regimes import REGIMES, Regime, regimes_by_name

__all__ = [
    "DEFAULT_COUNTS",
    "MAP_SCHEMA",
    "PINS_SCHEMA",
    "ValidityMap",
    "ValidityRow",
    "build_validity_map",
    "check_pins",
    "default_pins",
]

#: Default station-count grid: the paper's range (≤ 7) up to the
#: large-N territory the batch kernel opens (acceptance: 5 → ≥ 100).
DEFAULT_COUNTS = (5, 10, 25, 50, 100, 150)

MAP_SCHEMA = "repro-plc/validity-map/v1"
PINS_SCHEMA = "repro-plc/validity-pins/v1"

#: Seed-derivation stride between regime registry indices; station
#: counts must stay below it for indices to be collision-free.
_REGIME_STRIDE = 10_000


def default_pins() -> Dict[str, Any]:
    """Per-regime error ceilings (the committed pins' source of truth).

    Ceilings for the model-valid regimes are tight (the model should
    track simulation within a few percent); for the regimes where the
    saturated model is expected to break they bound *how far* it may
    drift — measured on the committed artifact plus margin, so a
    behaviour change in either the model or the kernel trips the pin
    check before it silently redraws the map.
    """
    return {
        "schema": PINS_SCHEMA,
        "regimes": {
            "saturated": {
                "collision_probability_error": 0.05,
                "throughput_relative_error": 0.06,
            },
            "fractional_load": {
                "collision_probability_error": 0.97,
                "throughput_relative_error": 0.55,
            },
            "heterogeneous": {
                "collision_probability_error": 0.20,
                "throughput_relative_error": 0.60,
            },
            "retry_limited": {
                "collision_probability_error": 0.12,
                "throughput_relative_error": 0.12,
            },
        },
    }


@dataclasses.dataclass(frozen=True)
class ValidityRow:
    """One cell of the map: model vs simulation at ``(regime, N)``."""

    regime: str
    num_stations: int
    model_collision_probability: float
    sim_collision_probability: float
    model_throughput: float
    sim_throughput: float
    repetitions: int
    #: Ceilings applied to this row (``None`` = unpinned).
    pin_collision: Optional[float]
    pin_throughput: Optional[float]

    @property
    def collision_probability_error(self) -> float:
        return abs(
            self.model_collision_probability - self.sim_collision_probability
        )

    @property
    def throughput_relative_error(self) -> float:
        """|model − sim| / sim, ``NaN`` when the sim delivered nothing."""
        if self.sim_throughput == 0:
            return float("nan")
        return (
            abs(self.model_throughput - self.sim_throughput)
            / self.sim_throughput
        )

    @property
    def flagged(self) -> bool:
        """Exceeds a pin, or an error metric is undefined."""
        return _flag(
            self.collision_probability_error,
            self.throughput_relative_error,
            self.pin_collision,
            self.pin_throughput,
        )

    def as_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["collision_probability_error"] = _jsonable_float(
            self.collision_probability_error
        )
        data["throughput_relative_error"] = _jsonable_float(
            self.throughput_relative_error
        )
        data["flagged"] = self.flagged
        return data


def _flag(
    coll_error: float,
    tput_error: float,
    pin_collision: Optional[float],
    pin_throughput: Optional[float],
) -> bool:
    if math.isnan(coll_error) or math.isnan(tput_error):
        return True
    if pin_collision is not None and coll_error > pin_collision:
        return True
    if pin_throughput is not None and tput_error > pin_throughput:
        return True
    return False


def _jsonable_float(value: float) -> Optional[float]:
    """NaN → ``None`` so the artifact is strict JSON."""
    return None if math.isnan(value) else value


def _stored_float(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)


@dataclasses.dataclass(frozen=True)
class ValidityMap:
    """The full artifact: rows plus the configuration that made them."""

    rows: List[ValidityRow]
    config: Dict[str, Any]

    @property
    def flagged_rows(self) -> List[ValidityRow]:
        return [row for row in self.rows if row.flagged]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": MAP_SCHEMA,
            "config": dict(self.config),
            "rows": [row.as_dict() for row in self.rows],
            "summary": {
                "cells": len(self.rows),
                "flagged": len(self.flagged_rows),
                "regimes": sorted({row.regime for row in self.rows}),
            },
        }


def _point_index(regime: Regime, num_stations: int) -> int:
    """Stable seed index for a cell, independent of grid selection."""
    if num_stations >= _REGIME_STRIDE:
        raise ValueError(
            f"num_stations must be < {_REGIME_STRIDE}, got {num_stations}"
        )
    registry = [r.name for r in REGIMES]
    return registry.index(regime.name) * _REGIME_STRIDE + num_stations


def build_validity_map(
    counts: Sequence[int] = DEFAULT_COUNTS,
    regimes: Optional[Sequence[str]] = None,
    config: Optional[CsmaConfig] = None,
    timing: Optional[TimingConfig] = None,
    sim_time_us: float = 1e7,
    repetitions: int = 2,
    seed: int = 1,
    method: str = "markov",
    pins: Optional[Dict[str, Any]] = None,
    runner=None,
    cache_dir=None,
    chunk_size: Optional[int] = None,
) -> ValidityMap:
    """Sweep every ``(regime, N)`` cell and build the validity map.

    ``runner`` is an optional
    :class:`~repro.runner.batch.BatchRunner`; by default one is built
    (``cache_dir`` / ``chunk_size`` as shorthands).  All cells run in
    one ``run_points`` call, so the kernel processes the whole map in
    lockstep and the cache makes interrupted or repeated sweeps
    incremental.  The model is solved once per distinct ``N`` and that
    prediction is shared by every regime's row.
    """
    from ..analysis.model import Model1901
    from ..runner.batch import BatchRunner
    from ..runner.seeding import SeedSpec

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    selected = regimes_by_name(regimes)
    csma = config if config is not None else CsmaConfig.default_1901()
    timing = timing if timing is not None else TimingConfig()
    pins = pins if pins is not None else default_pins()
    pin_regimes = pins.get("regimes", {})
    model = Model1901(csma, timing, method=method)
    if runner is None:
        runner = BatchRunner(
            cache_dir=cache_dir,
            **({"chunk_size": chunk_size} if chunk_size else {}),
        )

    cells = [
        (regime, n) for regime in selected for n in counts
    ]
    pairs = []
    for regime, n in cells:
        scenario = regime.scenario(
            n, csma=csma, timing=timing, sim_time_us=sim_time_us, seed=seed
        )
        index = _point_index(regime, n)
        for rep in range(repetitions):
            pairs.append(
                (
                    scenario,
                    SeedSpec(
                        root_seed=seed, point_index=index, repetition=rep
                    ),
                )
            )
    points = runner.run_points(pairs)

    # The model does not depend on the regime: one solve per distinct N.
    predictions = {
        n: model.solve(n) for n in dict.fromkeys(n for _, n in cells)
    }
    rows: List[ValidityRow] = []
    for k, (regime, n) in enumerate(cells):
        prediction = predictions[n]
        agg = aggregate(
            [
                p.result
                for p in points[k * repetitions : (k + 1) * repetitions]
            ]
        )
        pin = pin_regimes.get(regime.name, {})
        rows.append(
            ValidityRow(
                regime=regime.name,
                num_stations=n,
                model_collision_probability=prediction.collision_probability,
                sim_collision_probability=agg.collision_probability,
                model_throughput=prediction.normalized_throughput,
                sim_throughput=agg.normalized_throughput,
                repetitions=repetitions,
                pin_collision=pin.get("collision_probability_error"),
                pin_throughput=pin.get("throughput_relative_error"),
            )
        )
    return ValidityMap(
        rows=rows,
        config={
            "counts": list(counts),
            "regimes": [r.name for r in selected],
            "sim_time_us": sim_time_us,
            "repetitions": repetitions,
            "seed": seed,
            "method": method,
        },
    )


def check_pins(
    map_data: Dict[str, Any], pins: Dict[str, Any]
) -> List[str]:
    """Re-derive every row's flag from ``pins``; list the violations.

    Returns one message per problem: a row whose stored errors exceed
    the pin ceilings (or are undefined), a stored ``flagged`` marker
    that disagrees with the re-derivation (artifact/pins drift), or a
    schema mismatch.  An empty list means the artifact is green.
    """
    problems: List[str] = []
    if map_data.get("schema") != MAP_SCHEMA:
        problems.append(
            f"map schema {map_data.get('schema')!r} != {MAP_SCHEMA!r}"
        )
        return problems
    if pins.get("schema") != PINS_SCHEMA:
        problems.append(
            f"pins schema {pins.get('schema')!r} != {PINS_SCHEMA!r}"
        )
        return problems
    pin_regimes = pins.get("regimes", {})
    for row in map_data.get("rows", []):
        cell = f"{row['regime']}/N={row['num_stations']}"
        pin = pin_regimes.get(row["regime"])
        if pin is None:
            problems.append(f"{cell}: regime has no pin entry")
            continue
        coll = _stored_float(row["collision_probability_error"])
        tput = _stored_float(row["throughput_relative_error"])
        flagged = _flag(
            coll,
            tput,
            pin.get("collision_probability_error"),
            pin.get("throughput_relative_error"),
        )
        if flagged:
            problems.append(
                f"{cell}: collision error {coll:.4f} "
                f"(pin {pin.get('collision_probability_error')}), "
                f"throughput error {tput:.4f} "
                f"(pin {pin.get('throughput_relative_error')})"
            )
        if bool(row.get("flagged")) != flagged:
            problems.append(
                f"{cell}: stored flagged={row.get('flagged')} but pins "
                f"derive {flagged} — regenerate the artifact"
            )
    return problems
