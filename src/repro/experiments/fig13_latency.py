"""Figure 13: per-frame inference latency and the headline speedups.

Compares the Figure 13 metric — the per-horizon slowest-camera mean
inference time — across Full / BALB-Ind / SP / BALB, and derives the
paper's headline numbers: multiplicative BALB-vs-Full speedups (paper:
6.85x / 6.18x / 2.45x on S1 / S2 / S3) and the BALB-vs-SP advantage
(paper mean 1.88x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.runtime.metrics import RunResult, speedup_vs

LATENCY_POLICIES: Tuple[str, ...] = ("full", "balb-ind", "sp", "balb")


@dataclass
class LatencyRow:
    scenario: str
    policy: str
    slowest_camera_ms: float
    speedup_vs_full: float


@dataclass
class SpeedupSummary:
    scenario: str
    balb_vs_full: float
    balb_vs_ind: float
    balb_vs_sp: float


def latency_rows(runs: Dict[str, RunResult]) -> List[LatencyRow]:
    """Figure 13 rows (policy, slowest-camera ms, speedup) from runs."""
    full = runs["full"]
    rows = []
    for policy, result in runs.items():
        rows.append(
            LatencyRow(
                scenario=result.scenario,
                policy=policy,
                slowest_camera_ms=result.mean_slowest_latency(),
                speedup_vs_full=speedup_vs(full, result),
            )
        )
    return rows


def speedup_summary(runs: Dict[str, RunResult]) -> SpeedupSummary:
    """The headline BALB-vs-{Full, Ind, SP} speedups of one scenario."""
    return SpeedupSummary(
        scenario=runs["balb"].scenario,
        balb_vs_full=speedup_vs(runs["full"], runs["balb"]),
        balb_vs_ind=speedup_vs(runs["balb-ind"], runs["balb"]),
        balb_vs_sp=speedup_vs(runs["sp"], runs["balb"]),
    )
