"""Run orchestration: the adaptive flow-training sampler and baselines.

Each iteration of the main loop (run_mfm):
  1. while the inverse temperature is below 1, solve the ESS equation for
     the next beta and rebuild the annealed density;
  2. mutate every particle with the local Langevin kernel, except on every
     k_q-th iteration, which uses the flow-informed kernel instead;
  3. take one flow-matching training step on the freshly mutated particles.

The ensemble keeps each particle's target and base oracle values with its
position (kernels.ChainState).  The ESS solve reads its log-ratios from
that cache, and every kernel, local or flow-informed, reads the current
points' values from it and returns the updated cache; only the flow's ODE
field and its training use the annealed density as a TargetDensity.

All randomness comes from a single counter-based (Philox) generator with a
fixed draw order, plus a dedicated child stream for diagnostics sampling;
worker counts never touch either stream, so runs are bit-reproducible.
"""

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import cfm, diagnostics, flow, kernels, nets, tempering
from .diagnostics import DiagnosticsReport
from .errors import DegenerateWeights, DimensionMismatch, NonFiniteLoss
from .flow import FlowParams, OdeConfig
from .kernels import ChainState, MalaConfig
from .targets import TargetDensity, standard_normal, tempered
from .tempering import TemperState

MAX_NONFINITE_LOSSES = 100


@dataclass
class MfmConfig:
    """Knobs of the adaptive run; defaults match the desk-scale presets."""

    iters: int = 1000                 # K
    particles: int = 128              # N
    k_q: int = 100                    # local steps per flow step
    alpha_target: float = 0.5
    mala: MalaConfig = field(default_factory=lambda: MalaConfig(0.2))
    ode: OdeConfig = field(default_factory=OdeConfig)
    ot: cfm.OtPathConfig = field(default_factory=cfm.OtPathConfig)
    nonlocal_kernel: str = "rwmh"     # rwmh | imh | cis
    n_candidates: int = 4
    hidden: int = 128
    step_size: float = 1e-3           # initial Adam step, decays linearly to 0
    seed: int = 0
    temper: bool = True
    init_mean: Optional[np.ndarray] = None
    init_scale: float = 1.0
    diag_samples: int = 2048
    workers: int = 1

    def __post_init__(self):
        if self.iters < 1 or self.particles < 1 or self.k_q < 1:
            raise ValueError("iters, particles and k_q must all be >= 1")
        if self.nonlocal_kernel not in ("rwmh", "imh", "cis"):
            raise ValueError(f"unknown non-local kernel {self.nonlocal_kernel!r}")


@dataclass
class ChainEnsemble:
    """Particles (positions with cached oracle values) plus the annealing,
    acceptance and non-finite-proposal bookkeeping."""

    chains: ChainState
    temper: TemperState
    iteration: int = 0
    local_proposed: int = 0
    local_accepted: int = 0
    flow_proposed: int = 0
    flow_accepted: int = 0
    nonfinite_local: int = 0
    nonfinite_flow: int = 0

    @property
    def positions(self) -> np.ndarray:
        return self.chains.x

    def log_row(self, loss: float) -> dict:
        """One run-log row: the state after this iteration, counts cumulative."""
        return {
            "iteration": self.iteration,
            "beta": self.temper.beta,
            "loss": loss,
            "acceptance_local": self.acceptance_local,
            "acceptance_flow": self.acceptance_flow,
            "nonfinite_local": self.nonfinite_local,
            "nonfinite_flow": self.nonfinite_flow,
        }

    @property
    def acceptance_local(self) -> float:
        return self.local_accepted / max(1, self.local_proposed)

    @property
    def acceptance_flow(self) -> float:
        return self.flow_accepted / max(1, self.flow_proposed)


@dataclass
class RunArtifacts:
    flow_params: FlowParams
    ensemble: ChainEnsemble
    log_rows: List[dict]
    report: Optional[DiagnosticsReport]


def _root_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def diag_rng(seed: int) -> np.random.Generator:
    # independent child stream so re-diagnosis reproduces run diagnostics
    return np.random.Generator(np.random.Philox(key=seed, counter=2 ** 64))


def is_flow_iteration(k: int, k_q: int) -> bool:
    """Flow step on every k_q-th iteration: k = k_q-1 (mod k_q), 1-based k."""
    return k % k_q == (k_q - 1) % k_q


def _initial_positions(cfg: MfmConfig, base: TargetDensity,
                       rng: np.random.Generator) -> np.ndarray:
    if cfg.init_mean is not None:
        mean = np.asarray(cfg.init_mean, dtype=float)
        return mean + cfg.init_scale * rng.standard_normal((cfg.particles, base.dim))
    if base.sampler is None:
        raise ValueError("base density must provide a sampler for initialization")
    return base.sampler(rng, cfg.particles)


def run_mfm(base: TargetDensity, target: TargetDensity,
            cfg: MfmConfig) -> RunArtifacts:
    """Adaptive run: tempered MCMC mutations interleaved with flow training.

    Returns the trained flow, the final ensemble, one log row per iteration
    and a diagnostics report computed from flow-pushed samples.
    """
    if base.dim != target.dim:
        raise DimensionMismatch(f"base dim {base.dim} != target dim {target.dim}")
    t_start = time.perf_counter()
    rng = _root_rng(cfg.seed)

    positions = _initial_positions(cfg, base, rng)
    temper_state = TemperState(0.0 if cfg.temper else 1.0, cfg.alpha_target)
    ens = ChainEnsemble(kernels.evaluate(base, target, positions), temper_state)

    flow_params = flow.flow_init(rng, target.dim, cfg.hidden)
    adam = nets.adam_init(flow.flow_size(flow_params),
                          cfg.step_size, cfg.iters)
    # the annealed density, for training only
    current = tempered(base, target, ens.temper.beta)

    log_rows = []
    nonfinite_streak = 0
    for k in range(1, cfg.iters + 1):
        if ens.temper.beta < 1.0:
            ens.temper = tempering.next_beta(ens.chains.log_ratios(), ens.temper)
            current = tempered(base, target, ens.temper.beta)

        if is_flow_iteration(k, cfg.k_q):
            args = (base, target, flow_params, cfg.ode, ens.chains,
                    ens.temper.beta, rng)
            if cfg.nonlocal_kernel == "rwmh":
                out = kernels.flow_rwmh_step(*args)
            elif cfg.nonlocal_kernel == "imh":
                out = kernels.flow_imh_step(*args)
            else:
                out = kernels.flow_cis_step(*args, cfg.n_candidates)
            ens.flow_proposed += cfg.particles
            ens.flow_accepted += int(np.sum(out.accepted))
            ens.nonfinite_flow += out.n_nonfinite
        else:
            out = kernels.mala_step(base, target, cfg.mala, ens.chains,
                                    ens.temper.beta, rng)
            ens.local_proposed += cfg.particles
            ens.local_accepted += int(np.sum(out.accepted))
            ens.nonfinite_local += out.n_nonfinite
        ens.chains = out.chains
        ens.iteration = k

        try:
            flow_params, adam, loss = cfm.train_step(
                flow_params, adam, current, cfg.ot, ens.positions, rng)
            nonfinite_streak = 0
        except NonFiniteLoss:
            nonfinite_streak += 1
            loss = float("nan")
            if nonfinite_streak >= MAX_NONFINITE_LOSSES:
                raise NonFiniteLoss(
                    f"training loss non-finite for {nonfinite_streak} "
                    f"consecutive iterations (k={k})")

        log_rows.append(ens.log_row(loss))

    report = diagnose_flow(flow_params, target, cfg,
                           wall_seconds=time.perf_counter() - t_start)
    return RunArtifacts(flow_params, ens, log_rows, report)


def diagnose_flow(flow_params: FlowParams, target: TargetDensity,
                  cfg: MfmConfig, wall_seconds: float = None) -> DiagnosticsReport:
    """Push reference draws through the flow and score them.

    Uses a dedicated child stream of the seed, so the same (seed, flow)
    pair always yields the same report regardless of what the main stream
    consumed.
    """
    t0 = time.perf_counter()
    rng = diag_rng(cfg.seed)
    x0 = rng.standard_normal((cfg.diag_samples, target.dim))
    samples, _ = flow.push_samples(flow_params, target, x0, cfg.ode,
                                   rng=rng, workers=cfg.workers)
    exact = target.sampler(rng, cfg.diag_samples) if target.sampler else None
    elapsed = wall_seconds if wall_seconds is not None else time.perf_counter() - t0
    return diagnostics.compute_report(target, samples, exact,
                                      wall_seconds=elapsed, workers=cfg.workers)


def run_atsmc(base: TargetDensity, target: TargetDensity, cfg: MfmConfig):
    """Adaptive tempered SMC baseline with Langevin mutations.

    At each level: solve for the next beta, importance-weight the particles
    with the incremental weights, resample multinomially, then run k_q
    Langevin passes at the new temperature.  A final sweep runs at beta = 1.
    Returns (ensemble, log_rows).
    """
    if base.dim != target.dim:
        raise DimensionMismatch(f"base dim {base.dim} != target dim {target.dim}")
    rng = _root_rng(cfg.seed)
    if base.sampler is None:
        raise ValueError("base density must provide a sampler")
    positions = base.sampler(rng, cfg.particles)
    ens = ChainEnsemble(kernels.evaluate(base, target, positions),
                        TemperState(0.0, cfg.alpha_target))
    log_rows = []

    def mala_sweep():
        for _ in range(cfg.k_q):
            out = kernels.mala_step(base, target, cfg.mala, ens.chains,
                                    ens.temper.beta, rng)
            ens.chains = out.chains
            ens.local_proposed += cfg.particles
            ens.local_accepted += int(np.sum(out.accepted))
            ens.nonfinite_local += out.n_nonfinite

    while ens.temper.beta < 1.0:
        beta_prev = ens.temper.beta
        log_ratios = ens.chains.log_ratios()
        ens.temper = tempering.next_beta(log_ratios, ens.temper)
        # same incremental weights the ESS solve uses
        log_w = (ens.temper.beta - beta_prev) * log_ratios
        if not np.any(np.isfinite(log_w)):
            raise DegenerateWeights("all importance weights vanished")
        w = np.exp(log_w - np.max(log_w))
        idx = rng.choice(cfg.particles, size=cfg.particles, replace=True,
                         p=w / w.sum())
        ens.chains = ens.chains.take(idx)
        mala_sweep()
        ens.iteration += 1
        log_rows.append(ens.log_row(float("nan")))

    mala_sweep()   # final sweep at the target itself (beta = 1)
    ens.iteration += 1
    log_rows.append(ens.log_row(float("nan")))
    return ens, log_rows


def run_fm_oracle(target: TargetDensity, cfg: MfmConfig) -> RunArtifacts:
    """Train the flow on exact target draws: the quality ceiling.

    Only available for targets with an exact sampler (mixtures, product
    targets); each step regresses on a fresh batch of cfg.particles draws.
    """
    if target.sampler is None:
        raise ValueError(f"target {target.name!r} admits no exact sampling")
    t_start = time.perf_counter()
    rng = _root_rng(cfg.seed)
    flow_params = flow.flow_init(rng, target.dim, cfg.hidden)
    adam = nets.adam_init(flow.flow_size(flow_params),
                          cfg.step_size, cfg.iters)
    log_rows = []
    for k in range(1, cfg.iters + 1):
        batch = target.sampler(rng, cfg.particles)
        flow_params, adam, loss = cfm.train_step(
            flow_params, adam, target, cfg.ot, batch, rng)
        log_rows.append({
            "iteration": k, "beta": 1.0, "loss": loss,
            "acceptance_local": 0.0, "acceptance_flow": 0.0,
            "nonfinite_local": 0, "nonfinite_flow": 0,
        })
    # the final ensemble is fresh exact draws; the flow's standard normal
    # reference stands in as the base density of its cache
    final = target.sampler(rng, cfg.particles)
    ens = ChainEnsemble(kernels.evaluate(standard_normal(target.dim), target, final),
                        TemperState(1.0, cfg.alpha_target), cfg.iters)
    report = diagnose_flow(flow_params, target, cfg,
                           wall_seconds=time.perf_counter() - t_start)
    return RunArtifacts(flow_params, ens, log_rows, report)
