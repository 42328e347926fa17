"""Parallel report harness: byte-identity, caching, timing format.

The contract of ISSUE 5's tentpole: ``run_all(workers=N)`` must produce
the **byte-identical** report to ``run_all(workers=1)`` for any section
subset, any seed and any profile, because parallelism must never change
science output. These tests check that end to end on the QUICK profile
(a property-based sweep over sections x seeds plus a deterministic
full-report case), prove that a warm artifact cache skips every model
fit while leaving the report bytes unchanged, and pin the adaptive
elapsed-time format.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.pipeline as pipeline_mod
from repro.cache import ArtifactCache
from repro.experiments.parallel import (
    QUICK_PROFILE,
    SECTION_ORDER,
    Job,
    run_jobs,
    run_report_sections,
    warm_jobs,
)
from repro.experiments.runner import _fmt_elapsed, run_all

#: The byte reference for ``repro report --quick --no-timings --seed 0``
#: (CI also ``cmp``s the CLI output against it).
QUICK_GOLDEN = (
    Path(__file__).resolve().parents[2] / ".github" / "golden"
    / "report_quick_seed0.txt"
)

#: Cheap-enough sections for the property sweep (QUICK profile).
SWEEP_SECTIONS = ("FIG2", "FIG12", "FIG13", "FIG14", "TAB2", "EXTENSIONS")


class TestByteIdentity:
    @settings(max_examples=2, deadline=None)
    @given(
        sections=st.lists(
            st.sampled_from(SWEEP_SECTIONS), min_size=1, max_size=2,
            unique=True,
        ),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_parallel_report_matches_serial(self, tmp_path_factory, sections,
                                            seed):
        cache_dir = str(tmp_path_factory.mktemp("cache"))
        serial = run_all(
            seed=seed, profile=QUICK_PROFILE, sections=sections,
            timings=False,
        )
        parallel = run_all(
            seed=seed, profile=QUICK_PROFILE, sections=sections,
            timings=False, workers=2, cache=cache_dir,
        )
        assert parallel == serial

    def test_full_quick_report_identical_and_cached(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        serial = run_all(profile=QUICK_PROFILE, timings=False)
        parallel = run_all(
            profile=QUICK_PROFILE, timings=False, workers=2, cache=cache
        )
        assert parallel == serial
        assert serial + "\n" == QUICK_GOLDEN.read_text()
        # The warm-up wave trains once; every section job then hits.
        assert cache.hits > 0
        assert cache.misses <= len(
            warm_jobs(SECTION_ORDER, 0, QUICK_PROFILE)
        )


class TestWarmCache:
    def test_warm_rerun_skips_every_fit_and_matches_cold(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(str(tmp_path))
        cold = run_all(
            profile=QUICK_PROFILE, sections=["FIG12"], timings=False,
            cache=cache,
        )
        assert cache.puts > 0

        fits = []
        real_fit = pipeline_mod._train_models

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_train_models", counting_fit)
        warm_cache = ArtifactCache(str(tmp_path))
        warm = run_all(
            profile=QUICK_PROFILE, sections=["FIG12"], timings=False,
            cache=warm_cache,
        )
        assert warm == cold
        assert fits == []  # every train_models call was a cache hit
        assert warm_cache.hits > 0
        assert warm_cache.misses == 0


class TestRunAllValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown report sections"):
            run_all(sections=["FIG2", "NOPE"])

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_all(workers=0)

    def test_unknown_section_rejected_in_parallel_api(self):
        with pytest.raises(ValueError, match="unknown report sections"):
            run_report_sections(["BOGUS"], seed=0)


class TestJobDedup:
    def test_fig12_fig13_share_policy_runs(self, tmp_path):
        # FIG13's (scenario, policy) grid is a subset of FIG12's; the
        # fan-out must run each distinct cell once and reuse it.
        merged = run_report_sections(
            ["FIG12", "FIG13"], seed=0, profile=QUICK_PROFILE, workers=1,
            cache_root=str(tmp_path),
        )
        serial_12 = run_all(
            profile=QUICK_PROFILE, sections=["FIG12"], timings=False
        )
        serial_13 = run_all(
            profile=QUICK_PROFILE, sections=["FIG13"], timings=False
        )
        assert f"== FIG12 ==\n{merged.bodies['FIG12']}" == serial_12
        assert f"== FIG13 ==\n{merged.bodies['FIG13']}" == serial_13
        # 1 scenario x 5 policies total: the shared 4 ran once, so the
        # cache saw exactly one training miss (the warm-up job).
        assert merged.cache_misses == 1


def _double(x):
    return 2 * x


class TestRunJobs:
    def test_inline_results_ordered_and_timed(self):
        jobs = [Job("S", i, _double, (i,)) for i in range(4)]
        results = run_jobs(jobs, workers=1)
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert [r.key for r in results] == [0, 1, 2, 3]
        assert all(r.elapsed_s >= 0 for r in results)
        assert all(r.cache_hits == 0 and r.cache_misses == 0 for r in results)


class TestElapsedFormat:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0.0, "0ms"),
            (0.042, "42ms"),
            (0.0994, "99ms"),
            (0.1, "0.1s"),
            (1.26, "1.3s"),
            (62.0, "62.0s"),
        ],
    )
    def test_adaptive_units(self, seconds, expected):
        assert _fmt_elapsed(seconds) == expected
