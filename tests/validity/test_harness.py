"""Tests for the validity-map harness: sweep, flags, pins, artifact."""

import dataclasses
import json
import math

import pytest

from repro.validity import (
    REGIMES,
    ValidityRow,
    build_validity_map,
    check_pins,
    default_pins,
    format_validity_map,
    regimes_by_name,
    validity_figure,
)
from repro.validity.harness import (
    MAP_SCHEMA,
    PINS_SCHEMA,
    ValidityMap,
    _point_index,
)

SMALL = dict(counts=(2, 4), sim_time_us=3e5, repetitions=2)


def _small_map(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return build_validity_map(**kwargs)


class TestRegimes:
    def test_registry_covers_the_issue_families(self):
        names = [r.name for r in REGIMES]
        assert names == [
            "saturated",
            "fractional_load",
            "heterogeneous",
            "retry_limited",
        ]

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="unknown regime"):
            regimes_by_name(["saturated", "nope"])

    def test_scenarios_probe_the_advertised_families(self):
        by_name = {r.name: r for r in REGIMES}
        sat = by_name["saturated"].scenario(4)
        assert all(s.saturated for s in sat.stations)
        frac = by_name["fractional_load"].scenario(4)
        assert all(not s.saturated for s in frac.stations)
        het = by_name["heterogeneous"].scenario(4)
        assert [s.saturated for s in het.stations] == [
            True, False, True, False,
        ]
        retry = by_name["retry_limited"].scenario(4)
        assert all(s.csma.retry_limit == 7 for s in retry.stations)
        assert all(s.saturated for s in retry.stations)


class TestSeeding:
    def test_point_index_is_grid_independent(self):
        """Cell seeds depend on (registry index, N), not selection."""
        by_name = {r.name: r for r in REGIMES}
        assert _point_index(by_name["saturated"], 7) == 7
        assert _point_index(by_name["retry_limited"], 7) == 30_007
        with pytest.raises(ValueError, match="num_stations"):
            _point_index(by_name["saturated"], 10_000)

    def test_subsets_reproduce_full_grid_cells(self):
        full = _small_map()
        subset = _small_map(counts=(4,), regimes=["retry_limited"])
        (row,) = subset.rows
        (golden,) = [
            r
            for r in full.rows
            if r.regime == "retry_limited" and r.num_stations == 4
        ]
        assert row == golden


class TestFlags:
    def _row(self, **overrides):
        kwargs = dict(
            regime="saturated",
            num_stations=2,
            model_collision_probability=0.10,
            sim_collision_probability=0.12,
            model_throughput=0.5,
            sim_throughput=0.48,
            repetitions=2,
            pin_collision=0.05,
            pin_throughput=0.06,
        )
        kwargs.update(overrides)
        return ValidityRow(**kwargs)

    def test_within_pins_not_flagged(self):
        assert not self._row().flagged

    def test_exceeding_either_pin_flags(self):
        assert self._row(sim_collision_probability=0.2).flagged
        assert self._row(sim_throughput=0.3).flagged

    def test_nan_error_always_flags(self):
        row = self._row(sim_throughput=0.0, pin_throughput=None)
        assert math.isnan(row.throughput_relative_error)
        assert row.flagged

    def test_unpinned_row_only_flags_on_nan(self):
        row = self._row(
            pin_collision=None,
            pin_throughput=None,
            sim_collision_probability=0.9,
        )
        assert not row.flagged


class TestArtifact:
    def test_round_trips_strict_json(self, tmp_path):
        vmap = _small_map()
        path = tmp_path / "map.json"
        path.write_text(json.dumps(vmap.as_dict()))
        data = json.loads(path.read_text())
        assert data["schema"] == MAP_SCHEMA
        assert data["summary"]["cells"] == len(vmap.rows) == 8
        for row, stored in zip(vmap.rows, data["rows"]):
            assert stored["regime"] == row.regime
            assert stored["flagged"] == row.flagged

    def test_map_is_deterministic(self):
        assert _small_map().rows == _small_map().rows

    def test_cache_makes_reruns_incremental(self, tmp_path):
        from repro.runner import BatchRunner

        runner = BatchRunner(cache_dir=tmp_path)
        cold = _small_map(runner=runner)
        executed = runner.counters.executed
        assert executed == 16  # 4 regimes x 2 counts x 2 reps
        warm = _small_map(runner=runner)
        assert runner.counters.executed == executed
        assert runner.counters.cache_hits == 16
        assert warm.rows == cold.rows

    def test_one_model_solve_per_distinct_count(self, monkeypatch):
        from repro.analysis.model import Model1901
        from repro.core.config import CsmaConfig

        solve = Model1901.solve
        solved = []

        def counted(model, num_stations):
            # Regime scenarios size their loads with a "recursive"
            # model; the map's own predictions come from "markov".
            if model.method == "markov":
                solved.append(num_stations)
            return solve(model, num_stations)

        monkeypatch.setattr(Model1901, "solve", counted)
        # A small schedule keeps the per-cell reference solves cheap.
        csma = CsmaConfig(cw=(4, 8), dc=(0, 1))
        vmap = _small_map(counts=(5, 10), config=csma)
        assert len(vmap.rows) == 4 * 2
        assert sorted(solved) == [5, 10]

        model = Model1901(csma)
        per_cell = []
        for row in vmap.rows:
            prediction = model.solve(row.num_stations)
            per_cell.append(
                dataclasses.replace(
                    row,
                    model_collision_probability=(
                        prediction.collision_probability
                    ),
                    model_throughput=prediction.normalized_throughput,
                )
            )
        assert len(solved) == 2 + len(vmap.rows)
        expected = ValidityMap(rows=per_cell, config=vmap.config)
        assert vmap.as_dict() == expected.as_dict()

    def test_report_renders(self):
        vmap = _small_map(counts=(2, 3))
        table = format_validity_map(vmap)
        assert "regime" in table and "saturated" in table
        figure = validity_figure(vmap)
        assert "legend" in figure


class TestPins:
    def test_default_pins_cover_every_regime(self):
        pins = default_pins()
        assert pins["schema"] == PINS_SCHEMA
        assert set(pins["regimes"]) == {r.name for r in REGIMES}

    def test_green_artifact_passes(self):
        pins = default_pins()
        for regime in pins["regimes"].values():
            regime["collision_probability_error"] = 1.0
            regime["throughput_relative_error"] = 10.0
        vmap = _small_map(pins=pins)
        assert check_pins(vmap.as_dict(), pins) == []

    def test_exceeded_pin_reported(self):
        pins = default_pins()
        loose = json.loads(json.dumps(pins))
        for regime in loose["regimes"].values():
            regime["collision_probability_error"] = 1.0
            regime["throughput_relative_error"] = 10.0
        vmap = _small_map(pins=loose)
        tight = json.loads(json.dumps(loose))
        tight["regimes"]["saturated"]["collision_probability_error"] = 0.0
        problems = check_pins(vmap.as_dict(), tight)
        assert problems
        assert all("saturated" in p for p in problems)

    def test_stale_flags_reported(self):
        pins = default_pins()
        for regime in pins["regimes"].values():
            regime["collision_probability_error"] = 1.0
            regime["throughput_relative_error"] = 10.0
        data = _small_map(pins=pins).as_dict()
        data["rows"][0]["flagged"] = True  # artifact/pins drift
        problems = check_pins(data, pins)
        assert any("regenerate" in p for p in problems)

    def test_schema_mismatch_reported(self):
        assert check_pins({"schema": "bogus"}, default_pins())
        assert check_pins(
            {"schema": MAP_SCHEMA, "rows": []}, {"schema": "bogus"}
        )

    def test_missing_pin_entry_reported(self):
        pins = default_pins()
        del pins["regimes"]["saturated"]
        data = _small_map(counts=(2,), regimes=["saturated"]).as_dict()
        problems = check_pins(data, pins)
        assert any("no pin entry" in p for p in problems)
