"""Benchmark: Figure 10 — NMP convergence and evolutionary vs random search."""

from repro.experiments import format_fig10, run_fig10


def test_fig10_convergence(benchmark, settings):
    result = benchmark.pedantic(run_fig10, args=(settings,), iterations=1, rounds=1)
    print("\n=== Figure 10: NMP evolutionary search convergence and random-search comparison ===")
    print(format_fig10(result))
    convergence = result["evolutionary_convergence"]
    # (a) fitness is non-increasing over generations and actually improves.
    assert all(b <= a + 1e-12 for a, b in zip(convergence, convergence[1:]))
    assert convergence[-1] < convergence[0]
    # (b) the evolutionary search result is at least as good as random search
    # for the same evaluation budget (paper: 1.42x better).
    assert result["evolutionary_vs_random_speedup"] >= 1.0
    # Both searches spend exactly the shared budget.
    for stats in result["strategies"].values():
        assert stats["requested_evaluations"] == result["evaluation_budget"]
    # Fitness caching kicked in (the paper's search-cost optimisation).
    assert result["evolutionary_cache_hits"] > 0
