"""Smoke/shape tests for the experiment harnesses (tiny settings for speed)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentSettings,
    MULTI_TASK_CONFIGS,
    format_fig1,
    format_fig3,
    format_fig5,
    format_fig8,
    format_fig9,
    format_fig10,
    format_table,
    format_table1,
    format_table2,
    run_fig1,
    run_fig3,
    run_fig5,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table1,
    run_table2,
    traffic_mix,
)
from repro.core import NMPConfig, OptimizationLevel


TINY = ExperimentSettings(scale=0.12, duration=0.4, num_bins=5, seed=0)


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, ["a", "b"])
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 4

    def test_format_table_empty(self):
        assert format_table([], ["a"]) == "(no data)"


class TestFig1Fig3Fig5:
    def test_fig1_fields_and_ranges(self):
        result = run_fig1(TINY)
        assert 0.0 < result["mean_occupancy_percent"] < 100.0
        assert result["dense_gmacs_per_inference"] > result["event_proportional_gmacs"]
        assert "wasted operation fraction" in format_fig1(result)

    def test_fig3_ordering(self):
        rows = run_fig3(TINY)
        by_network = {r["network"]: r["mean_occupancy_percent"] for r in rows}
        assert by_network["adaptive_spikenet"] <= by_network["evflownet"]
        assert "network" in format_fig3(rows)

    def test_fig5_burstiness(self):
        result = run_fig5(TINY)
        assert result["total_events"] == sum(result["series"])
        assert result["peak_to_median_ratio"] >= 1.0
        assert "density" in format_fig5(result)


class TestFig8:
    def test_single_network_speedups(self):
        rows = run_fig8(TINY, networks=["dotie"])
        assert len(rows) == 1
        row = rows[0]
        assert row["speedup_e2sf"] > 0
        assert row["ev_edge_speedup"] > 1.0
        assert row["ev_edge_energy_gain"] > 1.0
        assert "speedup_e2sf" in format_fig8(rows)


class TestFig9Fig10:
    def test_fig9_single_config(self):
        rows = run_fig9(
            TINY,
            configs={"all_snn": MULTI_TASK_CONFIGS["all_snn"]},
            nmp_config=NMPConfig(population_size=8, generations=4, seed=0),
        )
        row = rows[0]
        assert row["speedup_vs_rr_network"] > 1.0
        assert row["speedup_vs_rr_layer"] > 1.0
        assert row["nmp_fp_slowdown"] >= 1.0
        assert "config" in format_fig9(rows)

    def test_fig10_convergence_monotone(self):
        result = run_fig10(
            TINY,
            config_name="all_snn",
            nmp_config=NMPConfig(population_size=8, generations=5, seed=0),
        )
        conv = result["evolutionary_convergence"]
        assert all(b <= a + 1e-12 for a, b in zip(conv, conv[1:]))
        assert result["evolutionary_vs_random_speedup"] > 0
        assert "evolutionary" in format_fig10(result)
        # Fig. 10b compares exactly the paper's two searches, each at the
        # full generations x population budget.
        strategies = result["strategies"]
        assert list(strategies) == ["evolutionary", "random"]
        assert result["evaluation_budget"] == 40
        for stats in strategies.values():
            assert stats["requested_evaluations"] == result["evaluation_budget"]


class TestTables:
    def test_table1_matches_paper(self):
        rows = run_table1()
        assert all(row["layers_match"] for row in rows)
        assert "paper_layers" in format_table1(rows)

    def test_table2_small_degradation(self):
        rows = run_table2(TINY, networks=["spikeflownet", "dotie"])
        for row in rows:
            assert row["degradation"] <= 0.3
            assert row["baseline"] == pytest.approx(row["baseline"])
        assert "ev_edge" in format_table2(rows)


class TestTrafficMix:
    def test_streams_cycle_the_recipe_and_share_inputs(self):
        sources = traffic_mix(6, settings=TINY, stagger=0.01)
        assert [s.name for s in sources] == [
            "s00:spikeflownet",
            "s01:dotie",
            "s02:halsie",
            "s03:e2depth",
            "s04:spikeflownet",
            "s05:dotie",
        ]
        assert [s.start_offset for s in sources] == pytest.approx(
            [0.01 * i for i in range(6)]
        )
        # Streams on the same recipe entry reuse one network and one sequence.
        assert sources[4].network is sources[0].network
        assert sources[4].sequence is sources[0].sequence
        assert sources[0].sequence is not sources[1].sequence
        for source in sources:
            assert source.config.num_bins == TINY.num_bins
            assert source.config.optimization is OptimizationLevel.E2SF_DSFA
            assert source.stop_time is None

    def test_defaults_overrides_and_validation(self):
        settings = ExperimentSettings(
            scale=0.12, duration=0.4, num_bins=5, seed=0, num_streams=2
        )
        sources = traffic_mix(
            settings=settings,
            network_resolution=(32, 48),
            optimization=OptimizationLevel.BASELINE,
        )
        assert len(sources) == 2
        assert all(s.config.optimization is OptimizationLevel.BASELINE for s in sources)
        for source in sources:
            first = source.network.layers()[0]
            assert (first.in_height, first.in_width) == (32, 48)
        with pytest.raises(ValueError):
            traffic_mix(0, settings=settings)
