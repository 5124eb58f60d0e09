"""Windowed metrics and synthesized utilization (the Prometheus stand-in).

Latency/throughput statistics come from the log of a run's completed
requests: the sliding window is its suffix of the last `window_len_s`
seconds, and the whole log gives the run's p95 and mean. CPU/memory/GPU
utilization is synthesized from per-pod constants because no real node
exists. Snapshots export in the Prometheus text exposition format 0.0.4.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .config import ExperimentConfig
from .simcore import ClusterModel, Pod, Pool


def nearest_rank_p95(values) -> float:
    """ceil(0.95*n)-th order statistic (1-based); 0.0 for an empty set."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1]


class MetricsWindow:
    """Every request completion of a run, in completion order (no utilization).

    Completions and queries come at nondecreasing engine time, so the window
    at `now` is the suffix of the log completed after `now - window_len_s`."""

    def __init__(self, window_len_s: float = 30.0) -> None:
        self.window_len_s = window_len_s
        self._times: list[float] = []
        self._latencies: list[float] = []

    def record_completion(self, ts: float, latency: float) -> None:
        self._times.append(ts)
        self._latencies.append(latency)

    def _start(self, now: float) -> int:
        return bisect_right(self._times, now - self.window_len_s)

    def latencies(self, now: float) -> list[float]:
        return self._latencies[self._start(now):]

    def p95(self, now: float) -> float:
        return nearest_rank_p95(self.latencies(now))

    def throughput(self, now: float) -> float:
        return (len(self._times) - self._start(now)) / self.window_len_s

    def run_p95(self) -> float:
        return nearest_rank_p95(self._latencies)

    def run_mean(self) -> float:
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)


class UtilizationModel:
    """Node-level utilization from the config's per-pod idle/busy constants."""

    def __init__(self, cfg: ExperimentConfig = ExperimentConfig()) -> None:
        self.cfg = cfg

    @staticmethod
    def _busy_fraction(pod: Pod) -> float:
        return len(pod.in_service) / pod.concurrency_cap

    def cpu_mem_utilization(self, cluster: ClusterModel) -> tuple[float, float]:
        cfg = self.cfg
        millicores = cfg.memory_pods * cfg.memory_pod_millicores
        mem = cfg.memory_pods * cfg.memory_pod_mem_bytes
        for pod in cluster.ready_pods(Pool.CPU):
            frac = self._busy_fraction(pod)
            millicores += cfg.cpu_pod_idle_millicores + frac * (
                cfg.cpu_pod_busy_millicores - cfg.cpu_pod_idle_millicores)
            mem += cfg.cpu_pod_mem_bytes
        for pod in cluster.ready_pods(Pool.GPU):
            frac = self._busy_fraction(pod)
            millicores += cfg.gpu_pod_idle_millicores + frac * (
                cfg.gpu_pod_busy_millicores - cfg.gpu_pod_idle_millicores)
            mem += cfg.gpu_pod_mem_bytes
        cpu_util = min(1.0, millicores / cfg.node_millicores)
        mem_util = min(1.0, mem / cfg.node_mem_bytes)
        return (cpu_util, mem_util)

    def gpu_utilization(self, cluster: ClusterModel) -> float:
        ready = cluster.ready_pods(Pool.GPU)
        if not ready:
            return 0.0
        mean_busy = sum(self._busy_fraction(p) for p in ready) / len(ready)
        scale = len(ready) / cluster.gpu_device_budget
        return min(1.0, mean_busy * scale)


def _fmt(value: float) -> str:
    return repr(float(value))


def export_snapshot(window: MetricsWindow, cluster: ClusterModel, now: float,
                    util_model: UtilizationModel) -> str:
    """Current gauges in Prometheus text exposition format 0.0.4."""
    cpu_util, mem_util = util_model.cpu_mem_utilization(cluster)
    gpu_util = util_model.gpu_utilization(cluster)
    lines = [
        "# TYPE kis_p95_seconds gauge",
        f"kis_p95_seconds {_fmt(window.p95(now))}",
        "# TYPE kis_throughput_rps gauge",
        f"kis_throughput_rps {_fmt(window.throughput(now))}",
        "# TYPE kis_gpu_util gauge",
        f"kis_gpu_util {_fmt(gpu_util)}",
        "# TYPE kis_cpu_util gauge",
        f"kis_cpu_util {_fmt(cpu_util)}",
        "# TYPE kis_mem_util gauge",
        f"kis_mem_util {_fmt(mem_util)}",
        "# TYPE kis_replicas gauge",
        f'kis_replicas{{pool="gpu"}} {cluster.desired_gpu}',
        f'kis_replicas{{pool="cpu"}} {cluster.desired_cpu}',
    ]
    return "\n".join(lines) + "\n"
