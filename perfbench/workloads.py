"""The three workloads, their set-up, and one measured run of each.

All three are closed-loop: the simulator's virtual users send their next
request only after the previous one completes. The workload seed is the only
input that varies; it reaches kisim as `--seed`.

The work a run does is a fixed function of (workload, seed, seconds), never
of how fast the host is, so a faster commit does the same work in less time
and every run of one seed writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kisim.agent import PpoAgent, TrainState, save_checkpoint
from kisim.config import ExperimentConfig, apply_overrides
from kisim.nn import NetDims

from calibration import Calibrator
from probe import SAMPLED_SPANS, Command, Probe
from tracer import Tracer, percentile, tail_is_supported

WORKLOADS = ("train", "evaluate", "dense_control")   # why each: BENCHMARK.json

# Seconds of --seconds per unit of work. They only turn --seconds into a work
# size: at 30 s, train and dense_control run one 100-episode `kisim train`
# each and evaluate runs 12 passes, about 15-30 s on a 2-vCPU x86 host.
TRAIN_COMMAND_S = 20.0     # one default 100-episode `kisim train`
EVAL_PASS_S = 2.5          # one `kisim evaluate`: 4 patterns x 4 policies
DENSE_EPISODE_S = 0.3      # one dense_control training episode
SEED_STRIDE = 1_000_003    # seed step between the commands of one run
SETUP_REPEATS = 5
DENSE_SETS = ("control_interval_s=1", "users_min=1", "users_max=5")
DIGEST_FILES = ("trace.jsonl", "checkpoint.kisc", "comparison.json")


def plan(workload: str, seed: int, seconds: int) -> list[list[str]]:
    """Arguments of the kisim commands one run times, before --out."""
    if workload == "train":
        count = max(1, int(seconds // TRAIN_COMMAND_S))
        return [["train", "--seed", str(seed + k * SEED_STRIDE)] for k in range(count)]
    if workload == "evaluate":
        count = max(1, int(seconds // EVAL_PASS_S))
        return [["evaluate", "{checkpoint}", "--seed", str(seed + k * SEED_STRIDE)]
                for k in range(count)]
    if workload == "dense_control":
        episodes = max(1, round(seconds / DENSE_EPISODE_S))
        sets = [arg for pair in DENSE_SETS for arg in ("--set", pair)]
        return [["train", "--seed", str(seed), "--episodes", str(episodes), *sets]]
    raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str, seed: int, checkpoint: Path) -> None:
    """What a user does before the timed command: parse the config and
    initialise an agent; evaluate also saves that agent as its checkpoint."""
    sets = list(DENSE_SETS) if workload == "dense_control" else []
    cfg = apply_overrides(ExperimentConfig(seed=seed), sets)
    agent = PpoAgent(NetDims(hidden1=cfg.hidden1, hidden2=cfg.hidden2), seed=seed)
    if workload == "evaluate":
        save_checkpoint(agent.params, TrainState(), checkpoint)


def digest(out: Path) -> dict[str, str]:
    """sha256 prefixes of the determinism files a command wrote."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
            for name in DIGEST_FILES if (out / name).exists()}


def code_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of every (code, workload, seed, command) run in this checkout,
    so a later run of the same command can prove it wrote the same bytes."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digests: dict[str, str]) -> str | None:
        seen = self.entries.setdefault(key, digests)
        if seen != digests:
            return f"digest {digests} differs from an earlier run's {seen} for {key}"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Threads in the OpenBLAS pool numpy loaded, or None if not found."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


@dataclass
class Pass:
    """One execution of a run's commands under one probe."""

    probe: Probe
    commands: list[Command] = field(default_factory=list)
    digests: list[dict[str, str]] = field(default_factory=list)

    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)


def execute(commands: list[list[str]], run_dir: Path, checkpoint: Path,
            tracer: Tracer | None) -> Pass:
    """Run the commands once; an untraced pass is also calibrated."""
    result = Pass(Probe(tracer, None if tracer else Calibrator()))
    with result.probe as probe:
        for k, command in enumerate(commands):
            out = run_dir / f"{'traced' if tracer else 'plain'}-{k}"
            argv = [str(checkpoint) if a == "{checkpoint}" else a for a in command]
            result.commands.append(probe.command([*argv, "--out", str(out)]))
            result.digests.append(digest(out))
            shutil.rmtree(out, ignore_errors=True)
    if tracer is not None and tracer.open_spans():
        probe.command_failures.append(f"{tracer.open_spans()} spans left open")
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(plain: Pass, setup_s: float, attempted: int, failed: int) -> dict:
    """End-to-end figures of the untraced pass, in calibrated host time."""
    commands, calibrator = plain.commands, plain.probe.calibrator
    calibrated = [c.seconds / c.slowdown for c in commands]
    # Speed can change within a command, so each episode takes the speed of
    # the samples around it.
    episode_ms = [e.seconds / calibrator.local_slowdown(e.sample) * 1e3
                  for e in plain.probe.episodes]
    completed = sum(e.completed for e in plain.probe.episodes)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(calibrated), "s"),
        "sim_req_per_s": metric(completed / sum(calibrated), "1/s"),
        "episode_ms_p50": metric(percentile(episode_ms or [0.0], 50)[0], "ms"),
        "episode_ms_p90": metric(percentile(episode_ms or [0.0], 90)[0], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": metric((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(traced: Pass, overhead_share: float) -> dict:
    """Per-layer figures of the traced pass. A layer the workload does not
    reach reports 0 (its span count is 0 in the report)."""
    probe, tracer = traced.probe, traced.probe.tracer
    us, ms = 1e6, 1e3

    def self_mean(name: str) -> float:
        stat = tracer.stat(name)
        return stat.self_total / stat.count if stat.count else 0.0

    def p50(name: str) -> float:
        samples = tracer.stat(name).samples
        return percentile(samples, 50)[0] if samples else 0.0

    run_until = tracer.stat("simcore.run_until")
    # run_until minus the traffic and metrics spans inside it: simcore spans
    # directly inside it (submit) are simcore's own work and count.
    simcore_self = run_until.self_total + sum(
        seconds for (parent, child), seconds in tracer.edges.items()
        if parent == "simcore.run_until" and child.startswith("simcore."))
    events = sum(e.events for e in probe.episodes)
    submits = tracer.stat("simcore.submit").count
    p95_calls = tracer.stat("metrics.p95").count
    minibatches = tracer.stat("nn.loss_and_grads").count
    update = tracer.stat("agent.update")
    return {
        "simcore.events": metric(events, "count"),
        "simcore.self_s": metric(simcore_self, "s"),
        "simcore.events_per_s": metric(events / run_until.total if run_until.total else 0.0,
                                       "1/s"),
        "simcore.submits": metric(submits, "count"),
        "simcore.submit_us": metric(tracer.mean("simcore.submit") * us, "us"),
        **{f"simcore.route_{outcome}_share":
           metric(probe.routes[outcome] / submits if submits else 0.0, "ratio")
           for outcome in ("direct", "queued", "backlog")},
        "simcore.set_replicas": metric(tracer.stat("simcore.set_replicas").count, "count"),
        "simcore.set_replicas_us": metric(tracer.mean("simcore.set_replicas") * us, "us"),
        "traffic.requests": metric(tracer.stat("traffic.on_complete").count, "count"),
        "traffic.on_complete_us": metric(tracer.mean("traffic.on_complete") * us, "us"),
        "metrics.record_us": metric(tracer.mean("metrics.record") * us, "us"),
        "metrics.p95_us": metric(tracer.mean("metrics.p95") * us, "us"),
        "metrics.window_len_mean": metric(
            probe.window_len_total / p95_calls if p95_calls else 0.0, "count"),
        "metrics.util_us": metric(tracer.mean("metrics.util") * us, "us"),
        "env.step_self_us": metric(self_mean("env.step") * us, "us"),
        "env.observe_us": metric(tracer.mean("env.observe") * us, "us"),
        "env.reset_ms": metric(tracer.mean("env.reset") * ms, "ms"),
        "nn.loss_and_grads_ms": metric(tracer.mean("nn.loss_and_grads") * ms, "ms"),
        "nn.adam_step_ms": metric(tracer.mean("nn.adam_step") * ms, "ms"),
        "agent.sample_action_us": metric(p50("agent.sample_action") * us, "us"),
        "agent.greedy_action_us": metric(p50("agent.greedy_action") * us, "us"),
        "agent.update_ms": metric(tracer.mean("agent.update") * ms, "ms"),
        "agent.minibatch_ms": metric(update.total / minibatches * ms if minibatches else 0.0,
                                     "ms"),
        "agent.checkpoint_ms": metric(tracer.mean("agent.checkpoint") * ms, "ms"),
        "baselines.decide_us": metric(tracer.mean("baselines.decide") * us, "us"),
        "baselines.self_ms": metric(self_mean("baselines.run_baseline") * ms, "ms"),
        "cli.self_s": metric(self_mean("cli.command"), "s"),
        "trace.overhead_share": metric(overhead_share, "ratio"),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 src: Path, work_dir: Path, import_s: float = 0.0,
                 extra_args: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """One measured run; returns (result line, report).

    The end-to-end figures come from an untraced pass. With trace, the same
    commands run again under the tracer, and both passes must write the same
    bytes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    commands = [[*c, *extra_args] for c in plan(workload, seed, seconds)]
    run_dir = work_dir / f"run-{os.getpid()}"
    checkpoint = run_dir / "setup" / "checkpoint.kisc"
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    calibrator = Calibrator()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            for _ in range(3):
                calibrator.sample()
            start = time.perf_counter()
            set_up(workload, seed, checkpoint)
            setup_times.append(time.perf_counter() - start)
        setup_digest = digest(checkpoint.parent)
        plain = execute(commands, run_dir, checkpoint, None)
        traced = (execute(commands, run_dir, checkpoint, Tracer(keep_samples=SAMPLED_SPANS))
                  if trace else None)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    mismatches = []
    store = DigestStore(work_dir / "digests.json")
    key = f"{code_hash(src / 'kisim')}|{workload}|seed={seed}"
    keyed = [(f"{key}|setup", setup_digest)] + [
        (f"{key}|{' '.join(c)}", d) for c, d in zip(commands, plain.digests)]
    for k, d in keyed:
        if d and (problem := store.check(k, d)):
            mismatches.append(problem)
    store.save()
    if traced is not None:
        mismatches += [f"traced pass wrote {t}, untraced wrote {p} for {' '.join(c)}"
                       for c, p, t in zip(commands, plain.digests, traced.digests) if p != t]

    passes = [plain] if traced is None else [plain, traced]
    episodes = [e for p in passes for e in p.probe.episodes]
    command_failures = [f for p in passes for f in p.probe.command_failures]
    failed = sum(1 for e in episodes if e.failures) or (1 if command_failures else 0)
    attempted = max(1, len(episodes), failed)
    setup_raw_s = import_s + statistics.median(setup_times)
    setup_s = setup_raw_s / calibrator.slowdown()
    if traced is None:
        metrics = end_to_end_metrics(plain, setup_s, attempted, failed)
        overhead = None
    else:
        overhead = traced.seconds() / plain.seconds() - 1.0
        metrics = layer_metrics(traced, overhead)

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "setup_raw_s": setup_raw_s,
        "setup_slowdown": calibrator.slowdown(),
        "import_s": import_s,
        "setup_digest": setup_digest,
        "commands": [{"argv": argv, "exit": c.code, "raw_s": c.seconds,
                      "slowdown": c.slowdown, "digest": d}
                     for argv, c, d in zip(commands, plain.commands, plain.digests)],
        "episodes": len(plain.probe.episodes),
        "episode_p90_supported": tail_is_supported(len(plain.probe.episodes), 90),
        "traced_raw_s": [c.seconds for c in traced.commands] if traced else None,
        "trace_overhead_share": overhead,
        "span_counts": ({name: s.count for name, s in sorted(traced.probe.tracer.stats.items())}
                        if traced else None),
        "failures": ([f"{e.kind}: {r}" for e in episodes for r in e.failures]
                     + command_failures)[:20],
        "digest_mismatches": mismatches,
    }
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report
