"""Windowed metrics and synthesized utilization (the Prometheus stand-in).

Latency/throughput statistics come from a sliding window that holds
completed requests only; CPU/memory/GPU utilization is synthesized from
per-pod constants because no real node exists, and its whole-run means are
kept by RunStats. Snapshots export in the Prometheus text
exposition format 0.0.4.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .simcore import ClusterModel, Pod, Pool, Request


def nearest_rank_p95(values) -> float:
    """ceil(0.95*n)-th order statistic (1-based); 0.0 for an empty set."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1]


class MetricsWindow:
    """Sliding window over request completions only (no utilization)."""

    def __init__(self, window_len_s: float = 30.0) -> None:
        self.window_len_s = window_len_s
        self._latencies: deque[tuple[float, float]] = deque()   # (ts, latency)

    def record_completion(self, ts: float, latency: float) -> None:
        self._latencies.append((ts, latency))

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_len_s
        while self._latencies and self._latencies[0][0] <= cutoff:
            self._latencies.popleft()

    def latencies(self, now: float) -> list[float]:
        self._prune(now)
        return [lat for _, lat in self._latencies]

    def p95(self, now: float) -> float:
        return nearest_rank_p95(self.latencies(now))

    def throughput(self, now: float) -> float:
        self._prune(now)
        return len(self._latencies) / self.window_len_s


@dataclass(frozen=True)
class UtilizationModel:
    """Node-level utilization from per-pod idle/busy constants."""

    node_millicores: float = 16000.0
    node_mem_bytes: float = 32.0 * 2**30
    cpu_pod_idle_millicores: float = 715.0
    cpu_pod_busy_millicores: float = 1062.0
    cpu_pod_mem_bytes: float = 540e6
    gpu_pod_idle_millicores: float = 42.0
    gpu_pod_busy_millicores: float = 72.0
    gpu_pod_mem_bytes: float = 825e6
    memory_pods: int = 3
    memory_pod_millicores: float = 3.0
    memory_pod_mem_bytes: float = 3.0 * 2**20

    @staticmethod
    def _busy_fraction(pod: Pod) -> float:
        return len(pod.in_service) / pod.concurrency_cap

    def cpu_mem_utilization(self, cluster: ClusterModel) -> tuple[float, float]:
        millicores = self.memory_pods * self.memory_pod_millicores
        mem = self.memory_pods * self.memory_pod_mem_bytes
        for pod in cluster.ready_pods(Pool.CPU):
            frac = self._busy_fraction(pod)
            millicores += self.cpu_pod_idle_millicores + frac * (
                self.cpu_pod_busy_millicores - self.cpu_pod_idle_millicores)
            mem += self.cpu_pod_mem_bytes
        for pod in cluster.ready_pods(Pool.GPU):
            frac = self._busy_fraction(pod)
            millicores += self.gpu_pod_idle_millicores + frac * (
                self.gpu_pod_busy_millicores - self.gpu_pod_idle_millicores)
            mem += self.gpu_pod_mem_bytes
        cpu_util = min(1.0, millicores / self.node_millicores)
        mem_util = min(1.0, mem / self.node_mem_bytes)
        return (cpu_util, mem_util)

    def gpu_utilization(self, cluster: ClusterModel) -> float:
        ready = cluster.ready_pods(Pool.GPU)
        if not ready:
            return 0.0
        mean_busy = sum(self._busy_fraction(p) for p in ready) / len(ready)
        scale = len(ready) / cluster.gpu_device_budget
        return min(1.0, mean_busy * scale)


class RunStats:
    """Whole-run accumulation for report tables (not windowed)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.util_samples: list[tuple[float, float, float]] = []

    def record_completion(self, req: Request) -> None:
        self.latencies.append(req.latency)

    def record_util(self, cpu: float, mem: float, gpu: float) -> None:
        self.util_samples.append((cpu, mem, gpu))

    def p95_s(self) -> float:
        return nearest_rank_p95(self.latencies)

    def mean_s(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def throughput_rps(self, duration_s: float) -> float:
        return len(self.latencies) / duration_s

    def mean_utils(self) -> tuple[float, float, float]:
        if not self.util_samples:
            return (0.0, 0.0, 0.0)
        n = len(self.util_samples)
        return (sum(u[0] for u in self.util_samples) / n,
                sum(u[1] for u in self.util_samples) / n,
                sum(u[2] for u in self.util_samples) / n)


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
