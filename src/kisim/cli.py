"""Experiment harness: train / evaluate / baseline / replay subcommands.

Every run writes its effective config next to its outputs so results can be
reproduced byte-for-byte from the recorded file plus the same code.

`baseline` and `evaluate` run one pattern x policy grid (`_run_grid`); they
differ in its policies and in the episode index base of its traffic seeds:
0 for `baseline`, `EVAL_SEED_BASE` for `evaluate`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

from .agent import PpoAgent, load_checkpoint, moving_average, train
from .baselines import POLICY_NAMES, run_baseline
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .env import TIMESERIES_FIELDS, ScalingEnv, episode_traffic, run_policy_episode
from .traffic import PATTERN_NAMES

EVAL_SEED_BASE = 2_000_000


class ReplayError(RuntimeError):
    pass


def _write_csv(path: Path, fieldnames, rows) -> None:
    # csv writes a float as its repr and any other value as its str
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows([row[k] for k in fieldnames] for row in rows)


def _write_report(out: Path, stem: str, fields, rows: list[dict], shown) -> None:
    """`<stem>.json`, `<stem>.csv` and a stdout table of the `shown` columns."""
    (out / f"{stem}.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _write_csv(out / f"{stem}.csv", fields, rows)
    sys.stdout.write(_render_table(rows, shown))


def _render_table(rows: list[dict], columns) -> str:
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
    return "" if v is None else str(v)


def _load_effective_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    flags = {"seed": args.seed, "episodes": getattr(args, "episodes", None),
             "out_dir": args.out}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(cfg.to_text())
    return out


def action_diversity(counts: Counter) -> tuple[int, int, float | None]:
    """(steps, distinct actions, the most common one's share) of an action histogram; a
    constant policy has 1 action at 1.0, and a histogram of no step no share."""
    steps = sum(counts.values())
    return steps, len(counts), max(counts.values()) / steps if steps else None


class _Counted:
    """The policy it wraps (its `name`, `pods` and the rest), counting its actions per pattern."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.actions: dict[str, Counter] = defaultdict(Counter)

    def __getattr__(self, name):
        return getattr(self.policy, name)

    def act(self, obs, env):
        action = self.policy.act(obs, env)
        self.actions[env.pattern][action.d_gpu, action.d_cpu, action.pref] += 1
        return action


def _select_patterns(args) -> list[str]:
    patterns = list(args.patterns or PATTERN_NAMES)
    for name in patterns:
        if name not in PATTERN_NAMES:
            raise ConfigError(
                f"unknown pattern name: {name!r} (expected one of {PATTERN_NAMES})")
        if patterns.count(name) > 1:
            raise ConfigError(f"pattern name {name!r} is given more than once")
    return patterns


def _run_grid(cfg: ExperimentConfig, out: Path, patterns, index_base: int, policies,
              agent: PpoAgent | None = None) -> dict[str, dict[str, dict]]:
    """Each policy on each pattern's traffic (`"kiscaler"` is `agent`), time series written."""
    grid: dict[str, dict[str, dict]] = {}
    for pattern in patterns:
        _, seed = episode_traffic(cfg.seed, index_base + PATTERN_NAMES.index(pattern))
        grid[pattern] = reports = {}
        for policy in policies:
            ts: list[dict] = []
            reports[policy] = (
                run_policy_episode(agent, pattern, cfg, seed, timeseries=ts) if policy == "kiscaler"
                else run_baseline(policy, pattern, cfg, traffic_seed=seed, timeseries=ts))
            _write_csv(out / f"timeseries_{pattern}_{policy}.csv", TIMESERIES_FIELDS, ts)
    return grid


# ---- train ----------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_effective_config(args)
    out = _prepare_out(cfg)
    agent = PpoAgent(cfg=cfg, seed=cfg.seed)

    with (out / "trace.jsonl").open("w") as trace:
        state = train(ScalingEnv(cfg, trace_sink=trace), agent, out)

    rows: list[dict] = []     # one per episode, for training_log and pattern_rewards
    pattern_returns: dict[str, list[float]] = defaultdict(list)
    for ep, (ret, (pattern, moving_avg, losses)) in enumerate(zip(state.returns, state.log)):
        pattern_returns[pattern].append(ret)
        rows.append({
            "episode": ep, "pattern": pattern, "return": ret, "moving_avg": moving_avg,
            "pattern_moving_avg": moving_average(pattern_returns[pattern]),
            "policy_loss": losses.policy_loss if losses else "",
            "value_loss": losses.value_loss if losses else "",
            "entropy": losses.entropy if losses else ""})
    eval_fields = ("train_episode", "eval_round", "pattern", "return")

    _write_csv(out / "training_log.csv",
               ("episode", "pattern", "return", "moving_avg",
                "policy_loss", "value_loss", "entropy"), rows)
    _write_csv(out / "eval_log.csv", eval_fields,
               [dict(zip(eval_fields, row)) for row in state.evals])
    _write_csv(out / "pattern_rewards.csv",
               ("episode", "pattern", "return", "pattern_moving_avg"), rows)
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
    patterns = _select_patterns(args)
    out = _prepare_out(cfg)

    rows = []
    for pattern, per_policy in _run_grid(cfg, out, patterns, 0, ("fixed_gpu", "fixed_cpu")).items():
        gpu, cpu = per_policy["fixed_gpu"], per_policy["fixed_cpu"]
        rows.append({
            "pattern": pattern,
            "gpu_p95_ms": gpu["p95_ms"],
            "cpu_p95_ms": cpu["p95_ms"],
            "speedup": cpu["p95_ms"] / gpu["p95_ms"] if gpu["p95_ms"] and cpu["p95_ms"] else "",
            "gpu_throughput_rps": gpu["throughput_rps"],
            "cpu_throughput_rps": cpu["throughput_rps"],
            "throughput_ratio": (gpu["throughput_rps"] / cpu["throughput_rps"]
                                 if cpu["throughput_rps"] > 0 else ""),
            "gpu_util_mean": gpu["gpu_util_mean"],
            "traffic_seed": gpu["traffic_seed"],
        })

    fields = ("pattern", "gpu_p95_ms", "cpu_p95_ms", "speedup",
              "gpu_throughput_rps", "cpu_throughput_rps", "throughput_ratio",
              "gpu_util_mean", "traffic_seed")
    _write_report(out, "baseline_report", fields, rows, fields)
    return 0


# ---- evaluate ----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    cfg = _load_effective_config(args)
    patterns = _select_patterns(args)
    agent = _Counted(PpoAgent(load_checkpoint(args.checkpoint)[0], cfg, seed=cfg.seed))
    out = _prepare_out(cfg)

    rows = []
    grid = _run_grid(cfg, out, patterns, EVAL_SEED_BASE, ("kiscaler",) + POLICY_NAMES, agent)
    for reports in grid.values():
        kis_p95 = reports["kiscaler"]["p95_ms"]
        # a p95 of None (no request completed) is no result: it ranks below any p95
        served = [reports[p]["p95_ms"] for p in POLICY_NAMES if reports[p]["p95_ms"] is not None]
        ahead = bool(served) and (kis_p95 is None or kis_p95 > min(served))
        for policy, report in reports.items():
            row = dict(report)
            row["speedup_vs_fixed_gpu"] = row["speedup_vs_fixed_cpu"] = ""
            if policy == "kiscaler" and kis_p95:
                for base in ("fixed_gpu", "fixed_cpu"):
                    base_p95 = reports[base]["p95_ms"]
                    row[f"speedup_vs_{base}"] = base_p95 / kis_p95 if base_p95 else ""
            row["flag"] = "baselines_ahead" if policy == "kiscaler" and ahead else ""
            rows.append(row)

    fields = ("pattern", "policy", "p95_ms", "mean_ms", "throughput_rps",
              "gpu_util_mean", "cpu_util_mean", "mem_util_mean",
              "speedup_vs_fixed_gpu", "speedup_vs_fixed_cpu", "flag",
              "requests_injected", "requests_completed", "traffic_seed")
    _write_report(out, "comparison", fields, rows,
                  ("pattern", "policy", "p95_ms", "throughput_rps", "gpu_util_mean",
                   "speedup_vs_fixed_gpu", "speedup_vs_fixed_cpu", "flag"))
    diversity_fields = ("pattern", "steps", "distinct_actions", "most_common_share")
    _write_csv(out / "kiscaler_actions.csv", diversity_fields,
               [dict(zip(diversity_fields, (p, *action_diversity(agent.actions[p]))))
                for p in grid])
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
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ReplayError(f"malformed trace line {lineno}: {exc}") from exc

    returns: dict[int, float] = defaultdict(float)
    by_pattern: dict = defaultdict(Counter)     # pattern -> its action histogram
    rows = []
    for lineno, rec in records:
        if not isinstance(rec, dict):
            raise ReplayError(f"trace line {lineno}: not a JSON object")
        try:
            action = rec["action"]
            if not (isinstance(action, list) and len(action) == 3
                    and all(type(a) is int for a in action)):
                raise ReplayError(f"trace line {lineno}: action {action!r} is not 3 ints")
            row = {
                "episode": rec["episode"],
                "step": rec["step"],
                "pattern": rec["pattern"],
                "reward_total": rec["reward"]["total"],
                "d_gpu": action[0],
                "d_cpu": action[1],
                "pref": action[2],
                "desired_gpu": rec["desired_gpu"],
                "desired_cpu": rec["desired_cpu"],
                "users": rec["users"],
            }
            returns[row["episode"]] += row["reward_total"]
            by_pattern[row["pattern"]][tuple(action)] += 1
        except KeyError as exc:
            raise ReplayError(f"trace line {lineno}: missing key {exc}") from None
        except TypeError as exc:  # a "reward" not an object, a total not a number, a list pattern
            raise ReplayError(f"trace line {lineno}: {exc}") from None
        rows.append(row)
    histogram = sum(by_pattern.values(), Counter())

    out = Path(args.out) if args.out else path.parent
    out.mkdir(parents=True, exist_ok=True)
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
    for pattern, counts in by_pattern.items():
        steps, distinct, share = action_diversity(counts)
        print(f"pattern {pattern}: {steps} steps, {distinct} distinct action(s), "
              f"the most common {share:.1%}")
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
