"""The in-process app workloads: stencil-heavy and soleil-many.

Each iteration calls the app's own run function for one step (``run_stencil`` /
``run_soleil`` with ``steps=1``).  It returns a copy of the output
fields read through the public region API, so the iteration timer stops
only after every launch of the step has committed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import measure
from repro.apps.soleil import SoleilConfig, build_soleil, reference_soleil, run_soleil
from repro.apps.stencil import StencilConfig, build_stencil, reference_stencil, run_stencil
from repro.exec.pool import shutdown_pools
from repro.runtime.runtime import Runtime, RuntimeConfig

#: Simulated nodes: each index launch is sharded four ways.
N_NODES = 4
#: Warm-up ends after the second whole-trace replay: the first replay
#: records the physical dependence templates, the second is the first to
#: use them (and fills the parallel backend's plan memo).  MAX_WARMUP caps
#: it for a runtime that stops reporting replays.
WARMUP_REPLAYS = 2
MAX_WARMUP = 8
#: soleil-many's iterations cost more the more iterations ran before on the
#: same runtime (``PhysicalAnalyzer.replay_tasks`` grows), so a run on a
#: faster host would measure later, dearer iterations.  After this many
#: measured iterations its runtime is verified, released and rebuilt
#: between windows, so every run measures the same iteration indices.
SOLEIL_EPOCH_ITERS = 40


@dataclass(frozen=True)
class App:
    name: str
    #: index launches per iteration (both workloads are fixed sequences)
    launches_per_iter: int
    make_config: Callable[[int, bool], Any]
    build: Callable[[Runtime, Any], Any]
    step: Callable[[Runtime, Any], Any]
    #: (config, last step's outputs, state, total steps) -> outputs correct
    verify: Callable[[Any, Any, Any, int], bool]
    #: measured iterations per runtime before it is rebuilt; None = never
    epoch_iters: Optional[int] = None


# ------------------------------------------------------------- stencil-heavy
def _stencil_config(seed: int, smoke: bool) -> StencilConfig:
    # The PRK initial condition in(i, j) = i + j is fixed; the seed has no
    # input to vary here.
    if smoke:
        return StencilConfig(n=128, blocks=(2, 2), radius=4, steps=1)
    return StencilConfig(n=1024, blocks=(2, 2), radius=16, steps=1)


def _stencil_verify(cfg: StencilConfig, out, grid, steps: int) -> bool:
    # Every step adds the star stencil of the *current* input, and the
    # input only ever grows by a constant; the star weights cancel in
    # (+i, -i) pairs, so the stencil of a constant is zero and every step
    # adds the same field.  Hence reference_stencil(cfg, s) equals
    # s * reference_stencil(cfg, 1), without paying s numpy steps here.
    expected = steps * reference_stencil(cfg, 1)
    ii, jj = np.meshgrid(np.arange(cfg.n), np.arange(cfg.n), indexing="ij")
    return bool(
        np.allclose(out, expected)
        and np.allclose(grid.grid.field_nd("input"), ii + jj + float(steps))
    )


STENCIL = App(
    name="stencil-heavy",
    launches_per_iter=2,
    make_config=_stencil_config,
    build=build_stencil,
    step=lambda rt, grid: run_stencil(rt, grid, steps=1),
    verify=_stencil_verify,
)


# --------------------------------------------------------------- soleil-many
def _soleil_config(seed: int, smoke: bool) -> SoleilConfig:
    if smoke:
        return SoleilConfig(cells_per_tile=(4, 4, 4), particles_per_tile=8,
                            steps=1, seed=seed)
    return SoleilConfig(tiles=(2, 2, 2), cells_per_tile=(8, 8, 8),
                        particles_per_tile=64, steps=1, seed=seed)


def _soleil_verify(cfg: SoleilConfig, out, state, steps: int) -> bool:
    ref = reference_soleil(cfg, steps=steps)
    return all(np.allclose(out[key], ref[key]) for key in ref)


SOLEIL = App(
    name="soleil-many",
    launches_per_iter=38,
    make_config=_soleil_config,
    build=build_soleil,
    step=lambda rt, state: run_soleil(rt, state, steps=1),
    verify=_soleil_verify,
    epoch_iters=SOLEIL_EPOCH_ITERS,
)

APPS: Dict[str, App] = {app.name: app for app in (STENCIL, SOLEIL)}


# --------------------------------------------------------------------- phases
@dataclass
class Instance:
    """One app configuration from construction to teardown: a runtime, or
    successive runtimes when the app sets ``epoch_iters``."""

    app: App
    config: Any
    workers: int
    rt: Runtime = None
    state: Any = None
    #: steps run on the current runtime, warm-up included
    steps: int = 0
    out: Any = None
    setup_s: float = 0.0
    failed: int = 0
    setup_cpu_s: float = 0.0
    #: wall seconds of every measured iteration
    samples: List[float] = field(default_factory=list)
    #: (iterations, CPU seconds of this process and its workers) per window
    blocks: List[tuple] = field(default_factory=list)
    #: this process's own CPU seconds over the measured windows
    cpu_s: float = 0.0
    #: steps run on released runtimes, and whether all of them verified
    retired_steps: int = 0
    retired_ok: bool = True
    #: ``len(samples)`` when the current runtime was built
    epoch_start: int = 0

    @classmethod
    def start(cls, app: App, config, workers: int) -> "Instance":
        """Build and warm up, timing it as the configuration's set-up."""
        cpu0 = measure.tree_cpu_seconds(os.getpid())
        t0 = time.perf_counter()
        inst = cls(app, config, workers)
        inst._build()
        inst.setup_s = time.perf_counter() - t0
        inst.setup_cpu_s = measure.tree_cpu_seconds(os.getpid()) - cpu0
        return inst

    def _build(self) -> None:
        """A fresh runtime, warmed up: pool spawn (first time only), build,
        cold first-launch analysis and trace recording, until replays run
        on recorded templates."""
        self.rt = Runtime(RuntimeConfig(n_nodes=N_NODES, workers=self.workers))
        self.state = self.app.build(self.rt, self.config)
        self.steps = 0
        self.epoch_start = len(self.samples)
        while self.steps < MAX_WARMUP:
            self.step()
            if getattr(self.rt.stats, "trace_replays", 0) >= WARMUP_REPLAYS:
                break

    @property
    def total_steps(self) -> int:
        return self.retired_steps + self.steps

    def step(self) -> None:
        self.out = self.app.step(self.rt, self.state)
        self.steps += 1

    def window(self, seconds: float, tracer=None) -> None:
        """Run whole iterations for ``seconds``, one measured window.  An
        untraced window that completes an epoch renews the runtime after
        its figures are taken."""
        c0 = time.process_time()
        tree0 = measure.tree_cpu_seconds(os.getpid())
        start = len(self.samples)
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None:
                tracer.iteration = self.steps
            t0 = time.perf_counter()
            self.step()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if t1 >= deadline:
                break
        self.cpu_s += time.process_time() - c0
        self.blocks.append((len(self.samples) - start,
                            measure.tree_cpu_seconds(os.getpid()) - tree0))
        epoch = self.app.epoch_iters
        if tracer is None and epoch and len(self.samples) - self.epoch_start >= epoch:
            self._retire()
            self._build()

    def _retire(self) -> None:
        """Verify the current runtime's outputs and release it."""
        try:
            self.failed += len(getattr(self.rt, "poison_log", ()))
            self.retired_ok = self.retired_ok and self.failed == 0 and self.app.verify(
                self.config, self.out, self.state, self.steps
            )
        finally:
            self.rt.backend.shutdown()
        self.retired_steps += self.steps
        self.steps = 0

    def finish(self) -> bool:
        """Verify the outputs of every runtime over every step it ran,
        then release the last one (the process's pools are shut down by
        the caller)."""
        self._retire()
        return self.retired_ok


def setup_seconds(app: App, config) -> tuple:
    """One cold parallel set-up (run in a fresh process): its wall and CPU
    seconds."""
    inst = Instance.start(app, config, workers=2)
    inst.finish()
    shutdown_pools()
    return inst.setup_s, inst.setup_cpu_s
