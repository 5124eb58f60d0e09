"""Windowed metrics and synthesized utilization (the Prometheus stand-in).

Latency/throughput statistics come from a cluster's completion log, the
time and latency of each completed request, which `Engine.run_until`
appends: the sliding window is its suffix of the last `window_len_s`
seconds, and the whole log gives the run's p95 and mean. CPU and GPU
utilization is synthesized from per-pod constants because no real node
exists.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .config import ExperimentConfig
from .simcore import ClusterModel, Pool


def nearest_rank_p95(values) -> float:
    """ceil(0.95*n)-th order statistic (1-based); 0.0 for an empty set."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1]


class MetricsWindow:
    """A view of a completion log, its completion times and latencies (no utilization).

    Completions and queries come at nondecreasing engine time, so the window
    at `now` is the suffix of the log completed after `now - window_len_s`."""

    def __init__(self, completion_times: list[float], completion_latencies: list[float],
                 window_len_s: float) -> None:
        self.completion_times = completion_times
        self.completion_latencies = completion_latencies
        self.window_len_s = window_len_s

    def _start(self, now: float) -> int:
        return bisect_right(self.completion_times, now - self.window_len_s)

    def latencies(self, now: float) -> list[float]:
        return self.completion_latencies[self._start(now):]

    def p95(self, now: float) -> float:
        return nearest_rank_p95(self.latencies(now))

    def throughput(self, now: float) -> float:
        return (len(self.completion_times) - self._start(now)) / self.window_len_s

    def run_p95(self) -> float:
        return nearest_rank_p95(self.completion_latencies)

    def run_mean(self) -> float:
        latencies = self.completion_latencies
        return sum(latencies) / len(latencies) if latencies else 0.0


def mean_busy(cluster: ClusterModel, pool: Pool) -> float:
    """Mean busy fraction (requests in service / concurrency cap) of a pool's
    Ready pods; 0.0 when none is Ready."""
    ready = cluster.ready_pods(pool)
    if not ready:
        return 0.0
    return sum(p.in_service / p.concurrency_cap for p in ready) / len(ready)


class UtilizationModel:
    """Node-level utilization from the config's per-pod idle/busy constants, read once."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.cfg = cfg
        self._base = cfg.memory_pods * cfg.memory_pod_millicores
        # per pool: its Ready pods' idle millicores, and busy minus idle
        self._pools = ((Pool.CPU, cfg.cpu_pod_idle_millicores,
                        cfg.cpu_pod_busy_millicores - cfg.cpu_pod_idle_millicores),
                       (Pool.GPU, cfg.gpu_pod_idle_millicores,
                        cfg.gpu_pod_busy_millicores - cfg.gpu_pod_idle_millicores))

    def cpu_mem_utilization(self, cluster: ClusterModel) -> float:
        """The node's CPU utilization. No memory is modelled: the name stays while perfbench's
        probe patches this method by name (`metrics.util`), until it reads kisim's own counters."""
        millicores = self._base
        # summed pod by pod: a pool's mean busy fraction times its pod count
        # can round differently
        for pool, idle, swing in self._pools:
            for pod in cluster.ready_pods(pool):
                millicores += idle + pod.in_service / pod.concurrency_cap * swing
        return min(1.0, millicores / self.cfg.node_millicores)

    def gpu_utilization(self, cluster: ClusterModel) -> float:
        busy = mean_busy(cluster, Pool.GPU)   # 0.0, so no division, when no GPU pod is Ready
        return busy and min(1.0, busy * (len(cluster.gpu_ready) / cluster.gpu_device_budget))
