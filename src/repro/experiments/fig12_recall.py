"""Figure 12: object recall of the scheduling policies.

Runs Full / BALB-Ind / BALB-Cen / BALB / SP over each scenario with shared
trained models and identical test worlds, reporting the paper's object
recall metric (an object visible to >= 1 camera counts as detected if any
camera detected it that frame).

Expected shape (paper Section IV-C): tracking-based slicing costs almost
no recall (BALB-Ind ~ Full); BALB-Cen degrades in busy scenes; full BALB
recovers most of the gap; SP is hit hardest by association imperfection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.metrics import RunResult
from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy, train_models
from repro.scenarios.aic21 import get_scenario

DEFAULT_POLICIES: Tuple[str, ...] = ("full", "balb-ind", "balb-cen", "balb", "sp")


@dataclass
class RecallRow:
    scenario: str
    policy: str
    recall: float


def run_policies(
    scenario_name: str,
    policies: Tuple[str, ...] = DEFAULT_POLICIES,
    config: Optional[PipelineConfig] = None,
    trained: Optional[TrainedModels] = None,
    seed: int = 0,
) -> Dict[str, RunResult]:
    """Run several policies on one scenario with shared trained models."""
    scenario = get_scenario(scenario_name, seed=seed)
    config = config or PipelineConfig(
        policy="balb", n_horizons=40, train_duration_s=120.0, warmup_s=30.0,
        seed=seed,
    )
    if trained is None:
        trained = train_models(scenario, config)
    return {
        policy: run_policy(scenario, policy, config, trained)
        for policy in policies
    }


def recall_rows(runs: Dict[str, RunResult]) -> List[RecallRow]:
    """Figure 12 rows (policy, recall) from a set of runs."""
    return [
        RecallRow(
            scenario=result.scenario, policy=policy, recall=result.object_recall()
        )
        for policy, result in runs.items()
    ]
