"""Wrappers around kisim's public entry points, installed from outside.

Without a tracer the probe only times episodes and checks their outputs, so
the end-to-end run pays a few microseconds per control step. With a tracer it
also opens a span around each layer's entry points. Every wrapper calls the
original with the same arguments and returns its result unchanged; the run
proves that by comparing the output digests of a traced and an untraced pass.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import time
from dataclasses import dataclass, field

import kisim.agent
import kisim.cli
import kisim.nn
from kisim.agent import PpoAgent
from kisim.baselines import HpaController
from kisim.env import ScalingEnv, SimStack
from kisim.metrics import MetricsWindow, UtilizationModel
from kisim.simcore import ClusterModel, Engine

from calibration import Calibrator
from tracer import Tracer

SAMPLED_SPANS = ("agent.sample_action", "agent.greedy_action")


def classify_route(cluster: ClusterModel, req) -> str:
    """Where ClusterModel.submit put req: 'direct', 'queued' or 'backlog'."""
    if req.service_started_at is not None:
        return "direct"
    if cluster.backlog and cluster.backlog[-1] is req:
        return "backlog"
    return "queued"


@dataclass
class Episode:
    """One training episode, greedy eval episode or baseline run."""

    kind: str
    seconds: float = 0.0
    completed: int = 0        # simulated requests completed
    events: int = 0           # engine events scheduled
    sample: int = -1          # index of the calibration sample taken after it
    failures: list[str] = field(default_factory=list)
    stacks: list = field(default_factory=list)


@dataclass
class Command:
    """One kisim command run through the probe."""

    argv: list[str]
    code: int
    seconds: float      # host seconds, calibration samples excluded
    slowdown: float     # host slowdown factor while it ran; 1.0 uncalibrated


class Probe:
    """Installs the wrappers on enter and restores the originals on exit.

    A calibrator, if given, is sampled before and after each command and
    after each episode, outside every timed interval; it is meant for
    untraced passes, where no span encloses the samples."""

    def __init__(self, tracer: Tracer | None = None,
                 calibrator: Calibrator | None = None) -> None:
        self.tracer = tracer
        self.calibrator = calibrator
        self.episodes: list[Episode] = []
        self.command_failures: list[str] = []
        self.routes = {"direct": 0, "queued": 0, "backlog": 0}
        self.window_len_total = 0
        self._episode: Episode | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ---- install / restore ------------------------------------------------

    def __enter__(self) -> "Probe":
        self._patch(kisim.agent, "run_episode",
                    self._episode_wrapper("agent.run_episode"))
        self._patch(kisim.cli, "run_policy_episode",
                    self._episode_wrapper("cli.run_policy_episode"))
        self._patch(kisim.cli, "run_baseline",
                    self._episode_wrapper("baselines.run_baseline"))
        self._patch(SimStack, "__init__", self._stack_init)
        self._patch(Engine, "run_until", self._run_until)
        self._patch(PpoAgent, "update", self._update)
        if self.tracer is None:
            return self
        spans = [
            (ClusterModel, "submit", self._submit),
            (ClusterModel, "set_desired_replicas", "simcore.set_replicas"),
            (MetricsWindow, "p95", self._p95),
            (UtilizationModel, "cpu_mem_utilization", "metrics.util"),
            (UtilizationModel, "gpu_utilization", "metrics.util"),
            (ScalingEnv, "step", "env.step"),
            (ScalingEnv, "observe", "env.observe"),
            (ScalingEnv, "reset_to", "env.reset"),
            (kisim.agent, "ppo_loss_and_grads", "nn.loss_and_grads"),
            (kisim.nn.Adam, "step", "nn.adam_step"),
            (PpoAgent, "__init__", "agent.init"),
            (PpoAgent, "sample_action", "agent.sample_action"),
            (PpoAgent, "greedy_action", "agent.greedy_action"),
            (kisim.agent, "save_checkpoint", "agent.checkpoint"),
            (kisim.cli, "load_checkpoint", "agent.load_checkpoint"),
            (HpaController, "decide", "baselines.decide"),
        ]
        for owner, attr, how in spans:
            make = how if callable(how) else functools.partial(self._timed, name=how)
            self._patch(owner, attr, make)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # ---- running a command ------------------------------------------------

    def command(self, argv: list[str]) -> Command:
        """Run one kisim command through kisim.cli.main."""
        tracer, calibrator = self.tracer, self.calibrator
        if calibrator is not None:
            first_sample = len(calibrator.samples)
            calibrator.sample()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin("cli.command")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = kisim.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.end()
        seconds = time.perf_counter() - start
        slowdown = 1.0
        if calibrator is not None:
            seconds -= sum(calibrator.samples[first_sample + 1:])   # taken between episodes
            calibrator.sample()
            slowdown = calibrator.slowdown(first_sample)
        if code != 0:
            self.command_failures.append(f"kisim {argv[0]} exited with {code}")
        return Command(argv, code, seconds, slowdown)

    def fail(self, reason: str) -> None:
        """Charge a failed check to the open episode, else the last one."""
        if self._episode is not None:
            self._episode.failures.append(reason)
        elif self.episodes:
            self.episodes[-1].failures.append(reason)
        else:
            self.command_failures.append(reason)

    # ---- episodes and output checks ----------------------------------------

    def _episode_wrapper(self, span: str):
        def make(original):
            @functools.wraps(original)
            def episode(*args, **kwargs):
                record = Episode(span)
                outer, self._episode = self._episode, record
                tracer = self.tracer
                start = time.perf_counter()
                if tracer is not None:
                    tracer.begin(span)
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    record.failures.append(f"raised {exc!r}")
                    raise
                finally:
                    if tracer is not None:
                        tracer.end()
                    record.seconds = time.perf_counter() - start
                    self._episode = outer
                    self._close(record)
                    if self.calibrator is not None:
                        record.sample = len(self.calibrator.samples)
                        self.calibrator.sample()
                numbers = ([v for v in result.values() if isinstance(v, float)]
                           if isinstance(result, dict) else [result])
                if not all(math.isfinite(v) for v in numbers):
                    record.failures.append(f"non-finite result {result!r}")
                return result
            return episode
        return make

    def _close(self, record: Episode) -> None:
        if not record.stacks:
            record.failures.append("episode built no simulation")
        for stack in record.stacks:
            cluster = stack.cluster
            outstanding = cluster.outstanding()
            if cluster.requests_injected != cluster.requests_completed + outstanding:
                record.failures.append(
                    f"injected {cluster.requests_injected} != completed "
                    f"{cluster.requests_completed} + outstanding {outstanding}")
            record.completed += cluster.requests_completed
            record.events += stack.engine.clock.seq
        record.stacks = []   # release the simulation
        self.episodes.append(record)

    def _stack_init(self, original):
        @functools.wraps(original)
        def __init__(stack, *args, **kwargs):
            original(stack, *args, **kwargs)
            if self._episode is not None:
                self._episode.stacks.append(stack)
            if self.tracer is not None:
                listeners = stack.cluster.completion_listeners
                for i, listener in enumerate(listeners):
                    owner = getattr(listener, "__self__", None)
                    name = ("traffic.on_complete" if owner is stack.generator
                            else "metrics.record")
                    listeners[i] = self._timed(listener, name)
        return __init__

    def _run_until(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def run_until(engine, t_end):
            if tracer is None:
                original(engine, t_end)
            else:
                tracer.begin("simcore.run_until")
                try:
                    original(engine, t_end)
                finally:
                    tracer.end()
            # Every control step advances the engine once, so this checks the
            # device budget after each step of every policy.
            for stack in (self._episode.stacks if self._episode else ()):
                if stack.engine is engine:
                    cluster = stack.cluster
                    active = cluster.active_gpu_count()
                    if active > cluster.gpu_device_budget:
                        self.fail(f"{active} active GPU pods over budget "
                                  f"{cluster.gpu_device_budget} at t={engine.now}")
        return run_until

    def _update(self, original):
        run = original if self.tracer is None else self._timed(original, "agent.update")

        @functools.wraps(original)
        def update(agent, buffer):
            report = run(agent, buffer)
            losses = (report.policy_loss, report.value_loss, report.entropy)
            if not all(math.isfinite(v) for v in losses):
                self.fail(f"non-finite losses {losses}")
            return report
        return update

    # ---- spans -------------------------------------------------------------

    def _timed(self, original, name: str):
        begin, end = self.tracer.begin, self.tracer.end

        @functools.wraps(original)
        def timed(*args, **kwargs):
            begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end()
        return timed

    def _submit(self, original):
        begin, end = self.tracer.begin, self.tracer.end
        routes = self.routes

        @functools.wraps(original)
        def submit(cluster, req):
            begin("simcore.submit")
            try:
                result = original(cluster, req)
            finally:
                end()
            routes[classify_route(cluster, req)] += 1
            return result
        return submit

    def _p95(self, original):
        begin, end = self.tracer.begin, self.tracer.end

        @functools.wraps(original)
        def p95(window, now):
            begin("metrics.p95")
            try:
                result = original(window, now)
            finally:
                end()
            # Same cutoff as the query just made, so this prunes nothing more.
            self.window_len_total += len(window.latencies(now))
            return result
        return p95
