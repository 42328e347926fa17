"""Micro-benchmark suite: payload schema and the regression gate.

``repro bench`` is CI's perf-smoke gate (ISSUE 5): it emits
``BENCH_micro.json`` and fails when a benchmark's median exceeds
``max_regression`` times the checked-in baseline. These tests exercise
the payload schema, the gate arithmetic and its edge cases (missing
benchmarks are skipped, malformed baselines are loud errors) without
timing anything real — plus one smoke run of the cheapest benchmark to
keep the harness honest.
"""

import pytest

from repro.association.pairwise import PairModel
from repro.bench import (
    BENCHMARKS,
    SCHEMA_VERSION,
    SOURCE_TARGETS,
    BenchResult,
    check_against_baseline,
    results_payload,
    run_benchmark,
)


def _results():
    return [
        BenchResult(name="alpha", median_ms=2.0, rounds=3, iterations=10),
        BenchResult(name="beta", median_ms=0.5, rounds=3, iterations=100),
    ]


class TestPayload:
    def test_schema(self):
        payload = results_payload(_results())
        assert payload["version"] == SCHEMA_VERSION
        assert set(payload["benchmarks"]) == {"alpha", "beta"}
        assert payload["benchmarks"]["alpha"] == {
            "median_ms": 2.0,
            "rounds": 3,
            "iterations": 10,
        }

    def test_payload_round_trips_through_gate(self):
        results = _results()
        baseline = results_payload(results)
        assert check_against_baseline(results, baseline, 2.0) == []


class TestGate:
    def test_within_ratio_passes(self):
        baseline = results_payload(_results())
        current = [
            BenchResult(name="alpha", median_ms=3.9, rounds=3, iterations=10)
        ]
        assert check_against_baseline(current, baseline, 2.0) == []

    def test_over_ratio_fails_with_context(self):
        baseline = results_payload(_results())
        current = [
            BenchResult(name="alpha", median_ms=4.1, rounds=3, iterations=10)
        ]
        failures = check_against_baseline(current, baseline, 2.0)
        assert len(failures) == 1
        assert "alpha" in failures[0]
        assert "4.1" in failures[0]
        assert "2.0" in failures[0]

    def test_benchmark_missing_from_baseline_is_skipped(self):
        baseline = results_payload(
            [BenchResult(name="alpha", median_ms=2.0, rounds=3, iterations=10)]
        )
        current = [
            BenchResult(name="brand-new", median_ms=99.0, rounds=3,
                        iterations=1)
        ]
        assert check_against_baseline(current, baseline, 2.0) == []

    def test_nonpositive_baseline_is_skipped(self):
        baseline = {
            "version": SCHEMA_VERSION,
            "benchmarks": {
                "alpha": {"median_ms": 0.0, "rounds": 3, "iterations": 10}
            },
        }
        current = [
            BenchResult(name="alpha", median_ms=5.0, rounds=3, iterations=10)
        ]
        assert check_against_baseline(current, baseline, 2.0) == []

    @pytest.mark.parametrize(
        "baseline", [{}, {"version": SCHEMA_VERSION}, {"benchmarks": []}]
    )
    def test_malformed_baseline_rejected(self, baseline):
        with pytest.raises(ValueError):
            check_against_baseline(_results(), baseline, 2.0)


class TestSuite:
    def test_registry_names_are_sorted_keys(self):
        assert "balb_priority_of" in BENCHMARKS
        for name, (setup, iterations) in BENCHMARKS.items():
            assert callable(setup), name
            assert iterations >= 1, name

    def test_cheapest_benchmark_smoke(self):
        result = run_benchmark("balb_priority_of", rounds=2)
        assert result.name == "balb_priority_of"
        assert result.rounds == 2
        assert result.median_ms >= 0.0

    def test_knn_source_query_runs_one_search_for_every_target(
        self, monkeypatch
    ):
        body = BENCHMARKS["knn_source_query"][0]()
        searches = []
        original = PairModel.source_query

        def spy(model, boxes):
            searches.append(model.pair)
            return original(model, boxes)

        monkeypatch.setattr(PairModel, "source_query", spy)
        results = body()
        assert searches == [(0, 1)]
        assert len(results) == SOURCE_TARGETS
        assert len({tuple(vis) for vis, _ in results}) > 1
