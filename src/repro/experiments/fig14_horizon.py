"""Figure 14: impact of the scheduling horizon length.

Sweeps the horizon T (frames between key frames) and reports BALB's object
recall and slowest-camera latency at each T. The paper's shape: longer
horizons amortize the full-frame cost (latency falls) but drift/association
errors accumulate (recall falls); T = 10 is the knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.runtime.pipeline import (
    PipelineConfig,
    TrainedModels,
    run_policy,
    train_models,
)
from repro.scenarios.aic21 import get_scenario

DEFAULT_HORIZONS: Tuple[int, ...] = (2, 5, 10, 20, 30)


@dataclass
class HorizonRow:
    horizon: int
    recall: float
    slowest_camera_ms: float


def horizon_point(
    scenario_name: str,
    horizon: int,
    frames_per_point: int,
    trained: Optional[TrainedModels],
    seed: int,
    train_duration_s: float = 120.0,
    warmup_s: float = 30.0,
) -> HorizonRow:
    """Run BALB at one horizon length and report the Figure 14 row."""
    scenario = get_scenario(scenario_name, seed=seed)
    if trained is None:
        trained = train_models(
            scenario,
            PipelineConfig(
                policy="balb", train_duration_s=train_duration_s,
                warmup_s=warmup_s, seed=seed,
            ),
        )
    config = PipelineConfig(
        policy="balb",
        horizon=horizon,
        n_horizons=max(4, frames_per_point // horizon),
        train_duration_s=train_duration_s,
        warmup_s=warmup_s,
        seed=seed,
    )
    result = run_policy(scenario, "balb", config, trained)
    return HorizonRow(
        horizon=horizon,
        recall=result.object_recall(),
        slowest_camera_ms=result.mean_slowest_latency(),
    )


def sweep_horizons(
    scenario_name: str = "S1",
    horizons: Tuple[int, ...] = DEFAULT_HORIZONS,
    frames_per_point: int = 300,
    seed: int = 0,
    trained: Optional[TrainedModels] = None,
    train_duration_s: float = 120.0,
    warmup_s: float = 30.0,
) -> List[HorizonRow]:
    """Run BALB at each horizon length with shared trained models."""
    scenario = get_scenario(scenario_name, seed=seed)
    if trained is None:
        trained = train_models(
            scenario,
            PipelineConfig(
                policy="balb", train_duration_s=train_duration_s,
                warmup_s=warmup_s, seed=seed,
            ),
        )
    return [
        horizon_point(
            scenario_name, horizon, frames_per_point, trained, seed,
            train_duration_s=train_duration_s, warmup_s=warmup_s,
        )
        for horizon in horizons
    ]
