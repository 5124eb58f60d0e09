"""Experiment harness: train / evaluate / baseline / replay subcommands.

Every run writes its effective config next to its outputs so results can be
reproduced byte-for-byte from the recorded file plus the same code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

from .agent import MOVING_AVG_WINDOW, PpoAgent, load_checkpoint, train
from .baselines import POLICY_NAMES, run_baseline
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .env import ScalingEnv, traffic_seed_for
from .nn import NetDims
from .traffic import PATTERN_NAMES

EVAL_SEED_BASE = 2_000_000

TIMESERIES_FIELDS = ("t", "users", "p95_s", "throughput_rps", "gpu_util",
                     "cpu_util", "mem_util", "gpu_replicas", "cpu_replicas")


class ReplayError(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, fieldnames, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _render_table(rows: list[dict], columns: list[str]) -> str:
    if not rows:
        return "(empty)\n"
    cells = [[_format_cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), max(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for row in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def _load_effective_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "episodes", None) is not None:
        cfg = cfg.replace(episodes=args.episodes)
    if args.out is not None:
        cfg = cfg.replace(out_dir=args.out)
    return cfg


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write(out / "effective_config.txt")
    return out


def _select_patterns(args) -> list[str]:
    if not args.patterns:
        return list(PATTERN_NAMES)
    chosen = []
    for name in args.patterns:
        if name not in PATTERN_NAMES:
            raise ConfigError(
                f"unknown pattern name: {name!r} (expected one of {PATTERN_NAMES})")
        chosen.append(name)
    return chosen


# ---- train ----------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_effective_config(args)
    out = _prepare_out(cfg)
    agent = PpoAgent(NetDims(hidden1=cfg.hidden1, hidden2=cfg.hidden2), cfg, seed=cfg.seed)

    train_rows: list[dict] = []
    eval_rows: list[dict] = []
    pattern_returns: dict[str, list[float]] = defaultdict(list)
    pattern_rows: list[dict] = []

    def on_episode(ep, pattern, ret, moving_avg, losses):
        train_rows.append({
            "episode": ep,
            "pattern": pattern,
            "return": ret,
            "moving_avg": moving_avg,
            "policy_loss": losses.policy_loss if losses else "",
            "value_loss": losses.value_loss if losses else "",
            "entropy": losses.entropy if losses else "",
        })
        pattern_returns[pattern].append(ret)
        window = pattern_returns[pattern][-MOVING_AVG_WINDOW:]
        pattern_rows.append({
            "episode": ep,
            "pattern": pattern,
            "return": ret,
            "pattern_moving_avg": sum(window) / len(window),
        })

    def on_eval(ep, eval_round, pattern, ret):
        eval_rows.append({
            "train_episode": ep,
            "eval_round": eval_round,
            "pattern": pattern,
            "return": ret,
        })

    with (out / "trace.jsonl").open("w") as trace:
        env = ScalingEnv(cfg, trace_sink=trace)
        eval_env = ScalingEnv(cfg)
        state = train(
            env, agent,
            episodes=cfg.episodes,
            eval_every=cfg.eval_every,
            eval_env=eval_env,
            checkpoint_path=out / "checkpoint.kisc",
            best_checkpoint_path=out / "checkpoint_best.kisc",
            on_episode=on_episode,
            on_eval=on_eval,
        )

    _write_csv(out / "training_log.csv",
               ("episode", "pattern", "return", "moving_avg",
                "policy_loss", "value_loss", "entropy"), train_rows)
    _write_csv(out / "eval_log.csv",
               ("train_episode", "eval_round", "pattern", "return"), eval_rows)
    _write_csv(out / "pattern_rewards.csv",
               ("episode", "pattern", "return", "pattern_moving_avg"), pattern_rows)
    print(f"trained {cfg.episodes} episodes; "
          f"moving average reward {state.moving_avg:.3f} "
          f"(best {state.best_moving_avg:.3f})")
    if state.converged_at >= 0:
        print(f"convergence detected at episode {state.converged_at}")
    print(f"outputs in {out}")
    return 0


# ---- baseline --------------------------------------------------------------

def cmd_baseline(args) -> int:
    cfg = _load_effective_config(args)
    out = _prepare_out(cfg)
    patterns = _select_patterns(args)

    rows = []
    for pattern in patterns:
        seed = traffic_seed_for(cfg.seed, PATTERN_NAMES.index(pattern))
        per_policy = {}
        for policy in ("fixed_gpu", "fixed_cpu"):
            ts: list[dict] = []
            report = run_baseline(policy, pattern, cfg, traffic_seed=seed,
                                  timeseries=ts)
            per_policy[policy] = report
            _write_csv(out / f"timeseries_{pattern}_{policy}.csv",
                       TIMESERIES_FIELDS, ts)
        gpu, cpu = per_policy["fixed_gpu"], per_policy["fixed_cpu"]
        rows.append({
            "pattern": pattern,
            "gpu_p95_ms": gpu["p95_ms"],
            "cpu_p95_ms": cpu["p95_ms"],
            "speedup": cpu["p95_ms"] / gpu["p95_ms"] if gpu["p95_ms"] > 0 else 0.0,
            "gpu_throughput_rps": gpu["throughput_rps"],
            "cpu_throughput_rps": cpu["throughput_rps"],
            "throughput_ratio": (gpu["throughput_rps"] / cpu["throughput_rps"]
                                 if cpu["throughput_rps"] > 0 else 0.0),
            "gpu_util_mean": gpu["gpu_util_mean"],
            "traffic_seed": seed,
        })

    fields = ("pattern", "gpu_p95_ms", "cpu_p95_ms", "speedup",
              "gpu_throughput_rps", "cpu_throughput_rps", "throughput_ratio",
              "gpu_util_mean", "traffic_seed")
    _write_json(out / "baseline_report.json", rows)
    _write_csv(out / "baseline_report.csv", fields, rows)
    sys.stdout.write(_render_table(rows, list(fields)))
    return 0


# ---- evaluate ----------------------------------------------------------------

def run_policy_episode(agent: PpoAgent, pattern: str, cfg: ExperimentConfig,
                       traffic_seed: int, timeseries: list | None = None) -> dict:
    """One greedy-policy run, reported like a baseline run."""
    env = ScalingEnv(cfg)
    obs = env.reset_to(pattern, traffic_seed)
    done = False
    while not done:
        obs, _, done = env.step(agent.greedy_action(obs.as_vector()))
        if timeseries is not None:
            timeseries.append(env.stack.row())
    return env.stack.report("kiscaler", traffic_seed)


def cmd_evaluate(args) -> int:
    cfg = _load_effective_config(args)
    out = _prepare_out(cfg)
    patterns = _select_patterns(args)

    params, _ = load_checkpoint(args.checkpoint)
    agent = PpoAgent(params.dims, cfg, seed=cfg.seed)
    agent.params = params

    rows = []
    for pattern in patterns:
        p_idx = PATTERN_NAMES.index(pattern)
        seed = traffic_seed_for(cfg.seed, EVAL_SEED_BASE + p_idx)
        reports = {}
        ts: list[dict] = []
        reports["kiscaler"] = run_policy_episode(agent, pattern, cfg, seed,
                                                 timeseries=ts)
        _write_csv(out / f"timeseries_{pattern}_kiscaler.csv", TIMESERIES_FIELDS, ts)
        for policy in POLICY_NAMES:
            ts = []
            reports[policy] = run_baseline(policy, pattern, cfg,
                                           traffic_seed=seed, timeseries=ts)
            _write_csv(out / f"timeseries_{pattern}_{policy}.csv",
                       TIMESERIES_FIELDS, ts)
        kis_p95 = reports["kiscaler"]["p95_ms"]
        baseline_best = min(reports[policy]["p95_ms"] for policy in POLICY_NAMES)
        for policy, report in reports.items():
            row = dict(report)
            if policy == "kiscaler" and kis_p95 > 0:
                row["speedup_vs_fixed_gpu"] = reports["fixed_gpu"]["p95_ms"] / kis_p95
                row["speedup_vs_fixed_cpu"] = reports["fixed_cpu"]["p95_ms"] / kis_p95
            else:
                row["speedup_vs_fixed_gpu"] = ""
                row["speedup_vs_fixed_cpu"] = ""
            row["flag"] = ("baselines_ahead"
                           if policy == "kiscaler" and kis_p95 > baseline_best else "")
            rows.append(row)

    fields = ("pattern", "policy", "p95_ms", "mean_ms", "throughput_rps",
              "gpu_util_mean", "cpu_util_mean", "mem_util_mean",
              "speedup_vs_fixed_gpu", "speedup_vs_fixed_cpu", "flag",
              "requests_injected", "requests_completed", "traffic_seed")
    _write_json(out / "comparison.json", rows)
    _write_csv(out / "comparison.csv", fields, rows)
    sys.stdout.write(_render_table(
        rows, ["pattern", "policy", "p95_ms", "throughput_rps",
               "gpu_util_mean", "speedup_vs_fixed_gpu", "speedup_vs_fixed_cpu",
               "flag"]))
    return 0


# ---- replay ---------------------------------------------------------------

def cmd_replay(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise ReplayError(f"trace file not found: {path}")
    records = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReplayError(f"malformed trace line {lineno}: {exc}") from exc

    out = Path(args.out) if args.out else path.parent
    out.mkdir(parents=True, exist_ok=True)

    returns: dict[int, float] = defaultdict(float)
    histogram: Counter = Counter()
    rows = []
    for rec in records:
        ep = rec.get("episode", 0)
        reward = rec.get("reward", {})
        returns[ep] += reward.get("total", 0.0)
        action = rec.get("action", [0, 0, 0])
        histogram[tuple(action)] += 1
        rows.append({
            "episode": ep,
            "step": rec.get("step", 0),
            "pattern": rec.get("pattern", ""),
            "reward_total": reward.get("total", 0.0),
            "d_gpu": action[0],
            "d_cpu": action[1],
            "pref": action[2],
            "desired_gpu": rec.get("desired_gpu", ""),
            "desired_cpu": rec.get("desired_cpu", ""),
            "users": rec.get("users", ""),
        })

    _write_csv(out / "replay_summary.csv",
               ("episode", "step", "pattern", "reward_total", "d_gpu", "d_cpu",
                "pref", "desired_gpu", "desired_cpu", "users"), rows)

    print(f"trace: {len(records)} steps over {len(returns)} episodes")
    for ep in sorted(returns):
        print(f"episode {ep}: return {returns[ep]:.4f}")
    total_steps = sum(histogram.values())
    print(f"action histogram ({total_steps} steps):")
    for action, count in sorted(histogram.items()):
        print(f"  d_gpu={action[0]:+d} d_cpu={action[1]:+d} pref={action[2]}: {count}")
    print(f"plot data written to {out / 'replay_summary.csv'}")
    return 0


# ---- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kisim",
        description="GPU-aware inference-cluster simulator with a PPO autoscaler")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, episodes=False, patterns=False):
        p.add_argument("--config", help="config file (flat key = value lines)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key")
        if episodes:
            p.add_argument("--episodes", type=int, help="number of training episodes")
        if patterns:
            p.add_argument("--patterns", nargs="+", metavar="NAME",
                           help=f"subset of {PATTERN_NAMES}")

    p_train = sub.add_parser("train", help="train the PPO autoscaler")
    common(p_train, episodes=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="compare a checkpoint against baselines")
    common(p_eval, patterns=True)
    p_eval.add_argument("checkpoint", help="path to a .kisc checkpoint")
    p_eval.set_defaults(func=cmd_evaluate)

    p_base = sub.add_parser("baseline", help="run fixed GPU/CPU baselines")
    common(p_base, patterns=True)
    p_base.set_defaults(func=cmd_baseline)

    p_replay = sub.add_parser("replay", help="summarize a JSON-lines trace")
    p_replay.add_argument("trace", help="path to trace.jsonl")
    p_replay.add_argument("--out", help="output directory for plot CSV")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # config, replay, checkpoint and I/O errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
