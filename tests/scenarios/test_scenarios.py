"""Tests for the declarative scenario layer and the parallel sweep runner."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core import OptimizationLevel
from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.scenarios import (
    BUILTIN_POLICIES,
    ScenarioSpec,
    SweepCell,
    SweepRunner,
    default_registry,
    simulate_cell,
    sweep_grid,
)
from repro.scenarios import sweep as sweep_module
from repro.scenarios.cli import main as scenarios_cli

SMALL = dict(num_streams=3, duration=0.3, scale=0.1, num_bins=4)


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _aggregates(report):
    return (
        report.num_streams,
        report.total_inferences,
        report.frames_generated,
        report.frames_dropped,
        report.total_energy,
        report.makespan,
        report.mean_latency,
        report.throughput,
    )


class TestRegistry:
    def test_at_least_five_builtin_families(self, registry):
        assert len(registry.families()) >= 5
        assert set(registry.names()) == set(registry.families())

    def test_compile_respects_stream_count(self, registry):
        for name in registry.names():
            sources = registry.compile(name, **SMALL)
            assert len(sources) == SMALL["num_streams"], name
            assert len({s.name for s in sources}) == len(sources), name

    def test_unknown_names_raise_with_listing(self, registry):
        with pytest.raises(KeyError, match="available"):
            registry.spec("nope")
        with pytest.raises(KeyError, match="available"):
            registry.family("nope")

    def test_duplicate_registration_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register(registry.spec("steady"))

    def test_overrides_merge_params(self, registry):
        spec = registry.resolve("hotspot", params={"alpha": 2.5}, num_streams=7)
        assert spec.param("alpha") == 2.5
        assert spec.num_streams == 7
        # The registered spec itself is untouched.
        assert registry.spec("hotspot").num_streams != 7
        assert "alpha" not in registry.spec("hotspot").params


class TestSpec:
    def test_content_hash_stable_and_sensitive(self):
        a = ScenarioSpec(name="x", family="steady", seed=3)
        b = ScenarioSpec(name="x", family="steady", seed=3)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != a.replace(seed=4).content_hash()
        assert a.content_hash() != a.replace(params={"stagger": 0.1}).content_hash()

    def test_dict_roundtrip(self):
        spec = ScenarioSpec(
            name="x", family="churn", num_streams=5, params={"lifetime_fraction": 0.4}
        )
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="steady", num_streams=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="steady", duration=0.0)


class TestFamilies:
    @pytest.mark.parametrize("name", sorted(default_registry().names()))
    def test_each_family_is_deterministic(self, registry, platform, name):
        # Same spec + seed -> identical compiled traffic and identical
        # MultiStreamReport aggregates, run to run.
        spec = registry.resolve(name, **SMALL)
        first = MultiStreamSimulator(platform, registry.compile(spec)).run()
        second = MultiStreamSimulator(platform, registry.compile(spec)).run()
        assert _aggregates(first) == _aggregates(second)
        assert first.total_inferences > 0

    def test_seed_changes_arrival_process(self, registry):
        base = registry.resolve("bursty", **SMALL)
        offsets_a = [s.start_offset for s in registry.compile(base)]
        offsets_b = [s.start_offset for s in registry.compile(base.replace(seed=9))]
        assert offsets_a != offsets_b

    def test_churn_sets_leave_windows(self, registry):
        spec = registry.resolve("churn", **dict(SMALL, num_streams=4))
        sources = registry.compile(spec)
        leavers = [s for s in sources if s.stop_time is not None]
        assert leavers
        for source in leavers:
            assert source.end_time <= source.stop_time + 1e-12
        churned = sum(len(s.arrival_times()) for s in sources)
        full = sum(
            len(s.arrival_times())
            for s in (
                type(s)(
                    name=s.name,
                    sequence=s.sequence,
                    network=s.network,
                    config=s.config,
                    start_offset=s.start_offset,
                )
                for s in sources
            )
        )
        assert churned < full

    def test_hotspot_concentrates_signatures(self, registry):
        spec = registry.resolve("hotspot", **dict(SMALL, num_streams=8))
        sources = registry.compile(spec)
        nets = [s.network.name for s in sources]
        # Zipf skew: the most popular network serves more than half the fleet.
        assert max(nets.count(n) for n in set(nets)) > len(sources) // 2

    def test_mixed_fleet_spans_the_ladder(self, registry):
        spec = registry.resolve("mixed_fleet", **dict(SMALL, num_streams=4))
        levels = {s.config.optimization for s in registry.compile(spec)}
        assert levels == {
            OptimizationLevel.BASELINE,
            OptimizationLevel.E2SF,
            OptimizationLevel.E2SF_DSFA,
            OptimizationLevel.FULL,
        }


def _worker_daemon_row(cell):
    return {"hash": cell.content_hash(), "daemon": multiprocessing.current_process().daemon}


class TestSweep:
    def _cells(self, policies=("batched",), scenarios=("steady", "hotspot")):
        return sweep_grid(scenarios, policies=policies, **SMALL)

    def test_workload_seed_ignores_platform_and_policy(self):
        spec = default_registry().resolve("steady", **SMALL)
        cells = [
            SweepCell(spec, platform="xavier_agx", policy=BUILTIN_POLICIES["batched"]),
            SweepCell(spec, platform="orin_nano", policy=BUILTIN_POLICIES["unbatched"]),
        ]
        assert cells[0].workload_seed == cells[1].workload_seed == spec.seed
        assert cells[0].content_hash() != cells[1].content_hash()

    def test_sweep_rows_reproduce_outside_the_runner(self, platform):
        # A sweep row must be reproducible with registry.compile(spec) on the
        # unmodified spec (no hidden seed rewriting inside simulate_cell).
        registry = default_registry()
        spec = registry.resolve("bursty", **SMALL)
        row = simulate_cell(SweepCell(spec))
        # Rows record their cost-model mode so they can be replayed with the
        # same cost semantics the policy selected.
        report = MultiStreamSimulator(
            platform, registry.compile(spec), cost_mode=row["cost_mode"]
        ).run()
        assert row["seed"] == spec.seed
        assert row["cost_mode"] == "profile"
        assert row["inferences"] == report.total_inferences
        assert row["throughput_fps"] == pytest.approx(report.throughput)
        assert row["frames_dropped"] == report.frames_dropped

    def test_unknown_platform_rejected(self):
        spec = default_registry().resolve("steady", **SMALL)
        with pytest.raises(KeyError):
            SweepCell(spec, platform="tpu9000")

    def test_policy_optimization_override(self):
        spec = default_registry().resolve("mixed_fleet", **SMALL)
        policy = BUILTIN_POLICIES["batched"]
        row = simulate_cell(
            SweepCell(spec, policy=type(policy)(
                name="forced", optimization=OptimizationLevel.E2SF.value
            ))
        )
        assert row["policy"] == "forced"
        assert row["inferences"] > 0

    def test_cache_roundtrip_and_dirty_cells(self, tmp_path):
        cells = self._cells()
        runner = SweepRunner(cache_dir=tmp_path / "cache", workers=1)
        cold = runner.run(cells)
        assert (cold.simulated, cold.from_cache) == (len(cells), 0)
        warm = runner.run(cells)
        assert (warm.simulated, warm.from_cache) == (0, len(cells))
        assert [r["hash"] for r in warm.rows] == [r["hash"] for r in cold.rows]
        # Editing one spec dirties exactly that cell.
        edited = list(cells)
        edited[0] = SweepCell(
            edited[0].scenario.replace(seed=123),
            platform=edited[0].platform,
            policy=edited[0].policy,
        )
        partial = runner.run(edited)
        assert (partial.simulated, partial.from_cache) == (1, len(cells) - 1)
        # force re-simulates everything.
        forced = runner.run(cells, force=True)
        assert forced.simulated == len(cells)

    def test_corrupt_cache_entry_is_dirty(self, tmp_path):
        cells = self._cells(scenarios=("steady",))
        runner = SweepRunner(cache_dir=tmp_path / "cache", workers=1)
        runner.run(cells)
        path = runner._cache_path(cells[0].content_hash())
        path.write_text("{not json", encoding="utf-8")
        report = runner.run(cells)
        assert report.simulated == 1

    @pytest.mark.parametrize("content", ["{}", "[]", "null", "other cell's row"])
    def test_malformed_cache_row_is_dirty(self, tmp_path, content):
        # Valid JSON that is not this cell's own row is re-simulated and
        # overwritten, never served: an empty object, an array, null, or a
        # row whose hash names another cell.
        cells = self._cells(scenarios=("steady",))
        cell_hash = cells[0].content_hash()
        fresh = simulate_cell(cells[0])
        if content == "other cell's row":
            other = self._cells(scenarios=("hotspot",))[0]
            content = json.dumps(dict(fresh, hash=other.content_hash()))
        runner = SweepRunner(cache_dir=tmp_path / "cache", workers=1)
        path = runner._cache_path(cell_hash)
        path.write_text(content, encoding="utf-8")
        report = runner.run(cells)
        assert (report.simulated, report.from_cache) == (1, 0)
        strip = lambda row: {k: v for k, v in row.items() if k != "from_cache"}
        assert strip(report.rows[0]) == strip(fresh)
        assert json.loads(path.read_text(encoding="utf-8"))["hash"] == cell_hash

    def test_parallel_matches_serial(self, tmp_path):
        cells = self._cells(policies=("batched", "unbatched"))
        serial = SweepRunner(workers=1).run(cells)
        parallel = SweepRunner(cache_dir=tmp_path / "cache", workers=2).run(cells)
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "from_cache"} for r in rows
        ]
        assert strip(parallel.rows) == strip(serial.rows)
        assert parallel.workers == 2

    def test_policy_shards_recorded_and_cache_distinct(self):
        spec = default_registry().resolve("mixed_fleet", **SMALL)
        unsharded = SweepCell(spec)
        sharded = SweepCell(
            spec, policy=dataclasses.replace(unsharded.policy, shards=2)
        )
        # The shard count is part of the cell's cache identity: rows cached
        # by unsharded runs must never alias sharded ones.
        assert unsharded.content_hash() != sharded.content_hash()
        row = simulate_cell(sharded)
        assert row["shards"] == 2
        assert simulate_cell(unsharded)["shards"] == 1

    def test_sharded_cells_run_inside_pool_workers(self, tmp_path):
        # Sweep workers are not daemonic, so a sharded cell starts shard
        # processes inside them; the rows must still match a serial run of
        # the same cells bit-for-bit.
        policy = dataclasses.replace(
            BUILTIN_POLICIES["batched"], name="batched2", shards=2
        )
        cells = self._cells(policies=(policy,), scenarios=("mixed_fleet",))
        serial = SweepRunner(workers=1).run(cells)
        parallel = SweepRunner(cache_dir=tmp_path / "cache", workers=2).run(cells)
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "from_cache"} for r in rows
        ]
        assert strip(parallel.rows) == strip(serial.rows)
        assert all(row["shards"] == 2 for row in serial.rows)

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="workers must inherit the patched cell function",
    )
    def test_pool_workers_are_not_daemonic(self, monkeypatch):
        # Only a non-daemonic process may start children, so this is what
        # lets a sharded cell start shard processes inside a sweep worker.
        monkeypatch.setattr(sweep_module, "simulate_cell", _worker_daemon_row)
        cells = self._cells(policies=("batched", "unbatched"))
        report = SweepRunner(workers=2).run(cells)
        assert report.simulated == len(cells)
        assert [row["daemon"] for row in report.rows] == [False] * len(cells)


# A sweep whose worker dies on the ``steady`` cell.  Forked workers inherit
# the patched ``simulate_cell``.
_CRASHING_SWEEP = textwrap.dedent(
    """
    import multiprocessing
    import os

    from repro.scenarios import sweep

    multiprocessing.set_start_method("fork")
    simulate = sweep.simulate_cell

    def crashing_cell(cell):
        if cell.scenario.name == "steady":
            os._exit(3)
        return simulate(cell)

    sweep.simulate_cell = crashing_cell
    cells = sweep.sweep_grid(["steady", "churn"], num_streams=2, duration=0.2)
    try:
        sweep.SweepRunner(workers=2).run(cells)
    except RuntimeError as exc:
        print("raised", type(exc).__name__)
    else:
        print("finished")
    """
)


@pytest.mark.skipif(sys.platform == "win32", reason="needs the fork start method")
def test_crashed_sweep_worker_fails_the_run():
    # Regression: a worker that dies used to leave SweepRunner.run blocked
    # forever on a result that never came.
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", _CRASHING_SWEEP],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised BrokenProcessPool"
    assert time.perf_counter() - start < 30


class TestCLI:
    def test_list(self, capsys):
        assert scenarios_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in default_registry().names():
            assert name in out

    def test_run(self, capsys):
        code = scenarios_cli(
            ["run", "steady", "--streams", "2", "--duration", "0.25", "--scale", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario steady" in out
        assert "steady:00" in out

    def test_run_with_shards(self, capsys):
        code = scenarios_cli(
            [
                "run", "mixed_fleet",
                "--shards", "2",
                "--streams", "4",
                "--duration", "0.25",
                "--scale", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario mixed_fleet" in out

    def test_sweep_with_cache(self, capsys, tmp_path):
        args = [
            "sweep",
            "--scenarios", "steady,churn",
            "--policies", "batched",
            "--workers", "2",
            "--streams", "2",
            "--duration", "0.25",
            "--scale", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert scenarios_cli(args) == 0
        first = capsys.readouterr().out
        assert "simulated=2" in first
        assert scenarios_cli(args) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second
        assert "from_cache=2" in second
