"""The 14-node evaluation substrate (paper Chapter 5).

Replaces the paper's physical GNURadio testbed with: a log-distance
path-loss + shadowing propagation model (:mod:`~repro.testbed.pathloss`), a
node topology whose SNR matrix and carrier-sense classification mirror the
paper's mix of hidden/partial/perfect sender pairs
(:mod:`~repro.testbed.topology`, home of the one SNR → sense-probability
rule), generated multi-cell deployments
(:mod:`~repro.testbed.deployment`), and a signal-level experiment runner
(:mod:`~repro.testbed.experiment`) that plays hidden-pair collision rounds
through the full PHY + receiver stack for the three compared designs:
ZigZag, Current 802.11, and the Collision-Free Scheduler (§5.1e).

The paper replays 802.11 MAC traces (§5.2) because its radios could not
run CSMA; here the closed-loop sessions of :mod:`repro.link` run DCF
contention live, so the testbed carries no trace replay.
"""

from repro.testbed.pathloss import LogDistancePathLoss
from repro.testbed.topology import SensingClass, Testbed, default_testbed
from repro.testbed.deployment import (
    CellPlan,
    Deployment,
    DeploymentConfig,
    client_name,
)
from repro.testbed.metrics import FlowStats, normalized_throughput, loss_rate
from repro.testbed.experiment import (
    Design,
    PairExperiment,
    PairExperimentConfig,
    run_capture_sweep_point,
    run_three_sender_experiment,
)

__all__ = [
    "CellPlan",
    "Deployment",
    "DeploymentConfig",
    "LogDistancePathLoss",
    "SensingClass",
    "Testbed",
    "client_name",
    "default_testbed",
    "FlowStats",
    "normalized_throughput",
    "loss_rate",
    "Design",
    "PairExperiment",
    "PairExperimentConfig",
    "run_capture_sweep_point",
    "run_three_sender_experiment",
]
