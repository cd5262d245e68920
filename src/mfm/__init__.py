"""Flow-assisted adaptive MCMC sampling of unnormalized densities.

The sampler mutates an ensemble of chains with local Langevin steps and
occasional non-local proposals routed through a continuous normalizing
flow, while the flow itself is trained on the fly against the chain's own
samples with a simulation-free flow-matching objective.  An ESS-driven
temperature ladder bridges from the flow's fixed N(0, I) reference to the
target.  Every runner takes ``(target, cfg)``.
"""

from .diagnostics import DiagnosticsReport
from .driver import (ChainEnsemble, ExperimentConfig, RunArtifacts, run_atsmc,
                     run_fm_oracle, run_mfm, run_report)
from .flow import FlowParams, OdeConfig
from .kernels import KernelOutcome
from .targets import TargetDensity
from .tempering import TemperState

__all__ = [
    "ChainEnsemble", "DiagnosticsReport", "ExperimentConfig", "FlowParams",
    "KernelOutcome", "OdeConfig", "RunArtifacts", "TargetDensity", "TemperState",
    "run_atsmc", "run_fm_oracle", "run_mfm", "run_report",
]
