"""Run orchestration: the adaptive flow-training sampler and baselines.

One :class:`ExperimentConfig` describes a run.  Constructing it validates
every field, raising ``ConfigError(field, ...)``, and derives the one
``OdeConfig`` the flow kernels and the closing push integrate with, so a
config that exists is a config that can run.

The three runners share one contract: ``run_mfm``, ``run_atsmc`` and
``run_fm_oracle`` take ``(target, cfg)`` and return
:class:`RunArtifacts`, the trained flow (``None`` for atsmc, which trains
none), the final ensemble and one log row per iteration or level.  The
caller times the runner (cli.run).  :func:`run_report` scores a finished
run, so a caller can store the samples before scoring them, and a report
that fails leaves the run's samples behind.

Each iteration of the main loop (run_mfm):
  1. while the inverse temperature is below 1, solve the ESS equation for
     the next beta and rebuild the annealed density;
  2. mutate every particle with the local Langevin kernel, except on every
     k_q-th iteration, which uses the flow-informed kernel instead;
  3. take one flow-matching training step on the freshly mutated particles.

Tempering starts from the flow's fixed reference N(0, I).  The ensemble
keeps each particle's target oracle values with its position
(kernels.ChainState).  The ESS solve reads its log-ratios from that
cache, and every kernel, local or flow-informed, reads the current points'
values from it and returns the updated cache; only the flow's ODE field
and its training use the annealed density as a TargetDensity.

All randomness comes from a single counter-based (Philox) generator with a
fixed draw order, plus a dedicated child stream for diagnostics sampling;
worker counts never touch either stream, so runs are bit-reproducible.
"""

import math
from dataclasses import dataclass, fields
from typing import List, Optional, get_args

import numpy as np

from . import cfm, diagnostics, flow, kernels, nets, targets, tempering
from .diagnostics import DiagnosticsReport
from .errors import ConfigError, DegenerateWeights, DimensionMismatch, NonFiniteLoss
from .flow import FlowParams, OdeConfig
from .kernels import ChainState, KernelOutcome
from .targets import TargetDensity, tempered
from .tempering import TemperState

MAX_NONFINITE_LOSSES = 100
ADAM_STEP_SIZE = 1e-3   # initial Adam step, decays linearly to 0
INIT_MEAN_SCALE = 0.5   # standard deviation of an init_mean start


MODES = ("mfm", "atsmc", "fm-oracle", "diagnose")
NONLOCAL_KERNELS = ("rwmh", "imh", "cis")
# accepted value types per annotation; JSON writes a whole float as an int
_VALUE_TYPES = {int: int, float: (int, float), str: str, list: list}


def _require(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ConfigError(name, message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully resolved description of one run; validated on construction.

    ``ode`` (not a field) is the OdeConfig built from ode_steps.  The
    divergence estimator is not configured: flow picks it from the
    target's dimension (flow.EXACT_DIVERGENCE_MAX_DIM).

    Values that no preset, benchmark workload or flag sets to more than
    one value are constants, not fields: the OT path's terminal scale
    (cfm.SIGMA_MIN), Adam's initial step (ADAM_STEP_SIZE), the CIS
    candidates per chain (kernels.CIS_CANDIDATES) and the spread of an
    init_mean start (INIT_MEAN_SCALE); and run_mfm always tempers from
    beta = 0.
    """

    mode: str = "mfm"              # mfm | atsmc | fm-oracle | diagnose
    preset: Optional[str] = None
    target: str = "gmm4"
    seed: Optional[int] = None     # mandatory; no default on purpose
    out: str = "runs/out"
    workers: int = 1
    iters: int = 1000              # K
    particles: int = 128           # N
    kq: int = 100                  # local steps per flow step
    alpha: float = 0.5             # ESS target of the temperature ladder
    mala_tau: float = 0.2
    ode_steps: int = 32
    hidden: int = 128
    nonlocal_kernel: str = "rwmh"  # rwmh | imh | cis
    diag_samples: int = 2048
    init_mean: Optional[list] = None
    m_side: int = 40
    counts_csv: Optional[str] = None

    def __post_init__(self):
        _require(self.seed is not None, "seed", "a seed is mandatory")
        for f in fields(self):
            value = getattr(self, f.name)
            # Optional[X] accepts None or an X
            kind, *optional = get_args(f.type) or (f.type,)
            if value is None and optional:
                continue
            _require(isinstance(value, _VALUE_TYPES[kind]), f.name,
                     f"expected {kind.__name__}, got {value!r}")
            # bool is a subclass of int, so a JSON true would pass as a count
            _require(not isinstance(value, bool), f.name,
                     f"must not be a boolean, got {value!r}")
        # the Philox key of the run's streams, diagnostics included
        _require(0 <= self.seed < 2 ** 128, "seed", "must lie in [0, 2**128)")
        _require(self.mode in MODES, "mode", f"unknown mode {self.mode!r}")
        _require(self.target in targets.DIMENSIONS, "target",
                 f"unknown target {self.target!r}")
        for name in ("workers", "iters", "particles", "kq", "ode_steps",
                     "hidden", "m_side"):
            _require(getattr(self, name) >= 1, name, "must be >= 1")
        # the unbiased MMD and KSD of the closing report need two samples
        _require(self.diag_samples >= 2, "diag_samples", "must be >= 2")
        # atsmc's report scores the ensemble itself, so it needs two particles
        _require(self.mode != "atsmc" or self.particles >= 2, "particles",
                 "must be >= 2 in atsmc mode")
        _require(self.nonlocal_kernel in NONLOCAL_KERNELS, "nonlocal_kernel",
                 f"unknown non-local kernel {self.nonlocal_kernel!r}")
        _require(self.mala_tau > 0 and math.isfinite(self.mala_tau), "mala_tau",
                 "must be finite and > 0")
        # atsmc and fm-oracle draw their own start; diagnose re-reads an mfm config
        _require(self.init_mean is None or self.mode in ("mfm", "diagnose"),
                 "init_mean", f"the {self.mode} mode draws its own start")
        mean = self.init_mean
        _require(mean is None or (
            len(mean) == self.dim
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in mean)),
            "init_mean", f"needs {self.dim} finite real entries, one per "
            f"dimension of the {self.target} target")
        _require(self.counts_csv is None or self.target == "lgcp", "counts_csv",
                 f"the {self.target} target reads no counts")
        _require(self.m_side == ExperimentConfig.m_side or self.target == "lgcp",
                 "m_side", f"the {self.target} target has no grid to size")
        _require(self.mode != "fm-oracle" or self.target in targets.EXACT_SAMPLERS,
                 "mode", f"the {self.target} target has no exact sampler to train on")
        # alpha >= 1 has no ESS crossing: the ladder would creep towards 1
        _require(0.0 < self.alpha < 1.0, "alpha", "must lie strictly in (0, 1)")
        object.__setattr__(self, "ode", OdeConfig(self.ode_steps))

    @property
    def dim(self) -> int:
        """The target's dimension, known before the target is built."""
        return targets.DIMENSIONS[self.target] or self.m_side ** 2


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

    def advance(self, out: KernelOutcome, flow_step: bool) -> None:
        """Take a kernel's next chains and count its proposals, acceptances
        and non-finite rejections under the local or the flow kernel."""
        accepted = int(np.sum(out.accepted))
        if flow_step:
            self.flow_proposed += len(out.accepted)
            self.flow_accepted += accepted
            self.nonfinite_flow += out.n_nonfinite
        else:
            self.local_proposed += len(out.accepted)
            self.local_accepted += accepted
            self.nonfinite_local += out.n_nonfinite
        self.chains = out.chains

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
    """What every runner returns; flow_params is None when no flow is trained.

    The caller times the runner (cli.run), so a run's time leaves out its
    report.
    """

    flow_params: Optional[FlowParams]
    ensemble: ChainEnsemble
    log_rows: List[dict]


def _root_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def diag_rng(seed: int) -> np.random.Generator:
    # independent child stream so re-diagnosis reproduces run diagnostics
    return np.random.Generator(np.random.Philox(key=seed, counter=2 ** 64))


def is_flow_iteration(k: int, k_q: int) -> bool:
    """Flow step on every k_q-th iteration: k = k_q-1 (mod k_q), 1-based k."""
    return k % k_q == (k_q - 1) % k_q


def _initial_positions(cfg: ExperimentConfig, dim: int,
                       rng: np.random.Generator) -> np.ndarray:
    """N(0, I) draws, or N(init_mean, INIT_MEAN_SCALE^2 I) ones if init_mean is set."""
    if cfg.init_mean is None:
        return rng.standard_normal((cfg.particles, dim))
    mean = np.asarray(cfg.init_mean, dtype=float)
    return mean + INIT_MEAN_SCALE * rng.standard_normal((cfg.particles, dim))


def run_mfm(target: TargetDensity, cfg: ExperimentConfig) -> RunArtifacts:
    """Adaptive run: tempered MCMC mutations interleaved with flow training.

    Returns the trained flow, the final ensemble and one log row per
    iteration; :func:`run_report` scores flow-pushed samples.  The flow
    kernel is looked up once per run, not at import, so a wrapper installed
    on the kernels module still sees its calls.
    """
    flow_kernel = {"rwmh": kernels.flow_rwmh_step, "imh": kernels.flow_imh_step,
                   "cis": kernels.flow_cis_step}[cfg.nonlocal_kernel]
    rng = _root_rng(cfg.seed)

    positions = _initial_positions(cfg, target.dim, rng)
    ens = ChainEnsemble(kernels.evaluate(target, positions),
                        TemperState(0.0, cfg.alpha))

    flow_params = flow.flow_init(rng, target.dim, cfg.hidden)
    adam = nets.adam_init(flow_params.flat.size, ADAM_STEP_SIZE, cfg.iters,
                          flow_params.flat.dtype)

    log_rows = []
    nonfinite_streak = 0
    for k in range(1, cfg.iters + 1):
        if ens.temper.beta < 1.0:
            ens.temper = tempering.next_beta(ens.chains.log_ratios(), ens.temper)

        flow_step = is_flow_iteration(k, cfg.kq)
        if flow_step:
            out = flow_kernel(target, flow_params, cfg.ode, ens.chains,
                              ens.temper.beta, rng)
        else:
            out = kernels.mala_step(target, cfg.mala_tau, ens.chains,
                                    ens.temper.beta, rng)
        ens.advance(out, flow_step)
        ens.iteration = k

        try:
            # the flow trains on the annealed density at the current beta
            flow_params, adam, loss = cfm.train_step(
                flow_params, adam, tempered(target, ens.temper.beta),
                ens.positions, rng)
            nonfinite_streak = 0
        except NonFiniteLoss:
            nonfinite_streak += 1
            loss = float("nan")
            if nonfinite_streak >= MAX_NONFINITE_LOSSES:
                raise NonFiniteLoss(
                    f"training loss non-finite for {nonfinite_streak} "
                    f"consecutive iterations (k={k})")

        log_rows.append(ens.log_row(loss))

    return RunArtifacts(flow_params, ens, log_rows)


def run_report(target: TargetDensity, cfg: ExperimentConfig,
               artifacts: RunArtifacts) -> DiagnosticsReport:
    """Score a finished run.

    A run that trained a flow is scored on reference draws pushed through
    it (:func:`diagnose_flow`).  atsmc trains none, so its final ensemble
    is scored itself; MMD needs equal-size sets, so against as many exact
    draws from the diagnostics stream as there are particles (diag_samples
    does not apply).
    """
    if artifacts.flow_params is not None:
        return diagnose_flow(artifacts.flow_params, target, cfg,
                             artifacts.ensemble.temper.beta)
    exact = target.sampler(diag_rng(cfg.seed), cfg.particles) \
        if target.sampler else None
    return diagnostics.compute_report(target, artifacts.ensemble.positions, exact,
                                      workers=cfg.workers)


def diagnose_flow(flow_params: FlowParams, target: TargetDensity,
                  cfg: ExperimentConfig, beta: float) -> DiagnosticsReport:
    """Push reference draws through the flow and score them.

    The push runs under the density the flow was trained on,
    tempered(target, beta) at the run's last beta, and the report scores
    where the draws land against the target itself.  It carries positions
    only, so no divergence is evaluated.  Uses a dedicated child stream of
    the seed for the reference draws and then the exact draws, so the same
    (seed, flow, beta) always yields the same report regardless of what
    the main stream consumed.  A flow of another dimension than the target
    is refused before anything is pushed.
    """
    if flow_params.dim != target.dim:
        raise DimensionMismatch(f"flow dim {flow_params.dim} != target dim {target.dim}")
    rng = diag_rng(cfg.seed)
    x0 = rng.standard_normal((cfg.diag_samples, target.dim))
    samples = flow.push_samples(flow_params, tempered(target, beta), x0, cfg.ode)
    exact = target.sampler(rng, cfg.diag_samples) if target.sampler else None
    return diagnostics.compute_report(target, samples, exact, workers=cfg.workers)


def run_atsmc(target: TargetDensity, cfg: ExperimentConfig) -> RunArtifacts:
    """Adaptive tempered SMC baseline with Langevin mutations.

    The particles start as N(0, I) draws (init_mean is refused).  At
    each level: solve for the next beta, importance-weight the particles
    with the incremental weights, resample multinomially, then run k_q
    Langevin passes at the new temperature.  A final sweep runs at beta = 1.
    No flow is trained, so :func:`run_report` scores the final ensemble
    itself.
    """
    rng = _root_rng(cfg.seed)
    positions = rng.standard_normal((cfg.particles, target.dim))
    ens = ChainEnsemble(kernels.evaluate(target, positions),
                        TemperState(0.0, cfg.alpha))
    log_rows = []

    def mala_sweep():
        for _ in range(cfg.kq):
            ens.advance(kernels.mala_step(target, cfg.mala_tau, ens.chains,
                                          ens.temper.beta, rng), False)

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
    return RunArtifacts(None, ens, log_rows)


def run_fm_oracle(target: TargetDensity, cfg: ExperimentConfig) -> RunArtifacts:
    """Train the flow on exact target draws: the quality ceiling.

    Only available for targets with an exact sampler (mixtures, product
    targets); each step regresses on a fresh batch of cfg.particles draws.
    The final ensemble is fresh exact draws.
    """
    if target.sampler is None:
        raise ValueError(f"target {target.name!r} admits no exact sampling")
    rng = _root_rng(cfg.seed)
    flow_params = flow.flow_init(rng, target.dim, cfg.hidden)
    adam = nets.adam_init(flow_params.flat.size, ADAM_STEP_SIZE, cfg.iters,
                          flow_params.flat.dtype)
    # no chains move while the flow trains; they are drawn after it
    ens = ChainEnsemble(None, TemperState(1.0, cfg.alpha))
    log_rows = []
    for k in range(1, cfg.iters + 1):
        batch = target.sampler(rng, cfg.particles)
        flow_params, adam, loss = cfm.train_step(
            flow_params, adam, target, batch, rng)
        ens.iteration = k
        log_rows.append(ens.log_row(loss))
    ens.chains = kernels.evaluate(target, target.sampler(rng, cfg.particles))
    return RunArtifacts(flow_params, ens, log_rows)
