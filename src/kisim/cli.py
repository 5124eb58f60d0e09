"""Experiment harness: train / evaluate / replay subcommands.

Every run writes its effective config next to its outputs so results can be
reproduced byte-for-byte from the recorded file plus the same code.

`evaluate` is the one comparison: a pattern x policy grid (`_run_grid`) on the
traffic of episode indices `EVAL_SEED_BASE` on, of KIScaler if a checkpoint is
given and of `POLICY_NAMES` always, one row per run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

from .agent import PpoAgent, load_checkpoint, train
from .baselines import POLICY_NAMES, run_baseline
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .env import OBS_FIELDS, TIMESERIES_FIELDS, episode_traffic, read_trace_line, run_policy_episode
from .traffic import PATTERN_NAMES

EVAL_SEED_BASE = 2_000_000
T_NORM = OBS_FIELDS.index("t_norm")   # t / episode_s: exactly 1.0 on an episode's last step


class ReplayError(RuntimeError):
    pass


def _write_csv(path: Path, fieldnames, rows) -> None:
    # csv writes a float as its repr and any other value as its str
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows([row[k] for k in fieldnames] for row in rows)


def _render_table(rows: list[dict], columns) -> str:
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
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    flags = {"seed": args.seed, "episodes": getattr(args, "episodes", None)}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _prepare_out(cfg: ExperimentConfig, path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(cfg.to_text())
    return out


def action_diversity(counts: Counter) -> tuple[int, int, float | None]:
    """(steps, distinct actions, the most common one's share) of an action histogram; a
    constant policy has 1 action at 1.0, and a histogram of no step no share."""
    steps = sum(counts.values())
    return steps, len(counts), max(counts.values()) / steps if steps else None


def _select_patterns(args) -> list[str]:
    patterns = list(args.patterns or PATTERN_NAMES)
    for name in patterns:
        if name not in PATTERN_NAMES:
            raise ConfigError(
                f"unknown pattern name: {name!r} (expected one of {PATTERN_NAMES})")
        if patterns.count(name) > 1:
            raise ConfigError(f"pattern name {name!r} is given more than once")
    return patterns


def _run_grid(cfg: ExperimentConfig, out: Path, patterns, agent: PpoAgent | None,
              actions) -> dict[str, dict[str, dict]]:
    """Each policy on each pattern's traffic, time series written: `"kiscaler"` (`agent`,
    which plays into the list `actions[pattern]`) first if there is an agent, then
    `POLICY_NAMES`."""
    policies = (() if agent is None else ("kiscaler",)) + POLICY_NAMES
    grid: dict[str, dict[str, dict]] = {}
    for pattern in patterns:
        _, seed = episode_traffic(cfg.seed, EVAL_SEED_BASE + PATTERN_NAMES.index(pattern))
        grid[pattern] = reports = {}
        for policy in policies:
            ts: list[dict] = []
            reports[policy] = (
                run_policy_episode(agent, pattern, cfg, seed, timeseries=ts,
                                   actions=actions[pattern]) if policy == "kiscaler"
                else run_baseline(policy, pattern, cfg, traffic_seed=seed, timeseries=ts))
            _write_csv(out / f"timeseries_{pattern}_{policy}.csv", TIMESERIES_FIELDS, ts)
    return grid


# ---- train ----------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_effective_config(args)
    out = _prepare_out(cfg, args.out)
    state = train(PpoAgent(cfg=cfg, seed=cfg.seed), out)
    print(f"trained {cfg.episodes} episodes; "
          f"moving average reward {state.moving_avg:.3f} "
          f"(best {state.best_moving_avg:.3f})")
    print(f"outputs in {out}")
    return 0


# ---- evaluate ----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    cfg = _load_effective_config(args)
    patterns = _select_patterns(args)
    agent = (PpoAgent(load_checkpoint(args.checkpoint)[0], cfg, seed=cfg.seed)
             if args.checkpoint else None)
    out = _prepare_out(cfg, args.out)

    rows = []
    actions: dict[str, list] = {p: [] for p in patterns}
    for reports in _run_grid(cfg, out, patterns, agent, actions).values():
        p95 = {policy: report["p95_ms"] for policy, report in reports.items()}
        # a p95 of None (no request completed) is no result: it ranks below any p95
        served = [p95[p] for p in POLICY_NAMES if p95[p] is not None]
        ahead = agent is not None and bool(served) and (
            p95["kiscaler"] is None or p95["kiscaler"] > min(served))
        for policy, report in reports.items():
            row = dict(report)
            for base in ("fixed_gpu", "fixed_cpu"):
                row[f"speedup_vs_{base}"] = (p95[base] / p95[policy]
                                             if p95[base] and p95[policy] else "")
            row["flag"] = "baselines_ahead" if policy == "kiscaler" and ahead else ""
            rows.append(row)

    fields = ("pattern", "policy", "p95_ms", "mean_ms", "throughput_rps",
              "gpu_util_mean", "cpu_util_mean", "speedup_vs_fixed_gpu",
              "speedup_vs_fixed_cpu", "flag",
              "requests_injected", "requests_completed", "traffic_seed")
    (out / "comparison.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _write_csv(out / "comparison.csv", fields, rows)
    sys.stdout.write(_render_table(rows, ("pattern", "policy", "p95_ms", "throughput_rps",
                                          "gpu_util_mean", "speedup_vs_fixed_gpu",
                                          "speedup_vs_fixed_cpu", "flag")))
    if agent is not None:
        diversity_fields = ("pattern", "steps", "distinct_actions", "most_common_share")
        _write_csv(out / "kiscaler_actions.csv", diversity_fields,
                   [dict(zip(diversity_fields, (p, *action_diversity(Counter(played)))))
                    for p, played in actions.items()])
    return 0


# ---- replay ---------------------------------------------------------------

def cmd_replay(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise ReplayError(f"trace file not found: {path}")
    returns: dict[int, float] = defaultdict(float)
    by_pattern: dict = defaultdict(Counter)     # pattern -> its action histogram
    rows = []
    last = None     # the record read before, whose episode the next one continues or ends
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = read_trace_line(line)
            except ValueError as exc:
                raise ReplayError(f"trace line {lineno}: {exc}") from None
            episode, step, action = rec["episode"], rec["step"], rec["action"]
            # run_episode's order: steps 1, 2, ... of one pattern until t_norm reads 1.0, then
            # step 1 of the next episode; the first line may start any episode, the last stop short
            goes_on = last is not None and last["obs"][T_NORM] != 1.0
            expected = ((last["episode"], last["step"] + 1) if goes_on
                        else (episode if last is None else last["episode"] + 1, 1))
            if (episode, step) != expected or (goes_on and rec["pattern"] != last["pattern"]):
                raise ReplayError(
                    f"trace line {lineno}: episode {episode} step {step} ({rec['pattern']}), "
                    f"expected episode {expected[0]} step {expected[1]}"
                    + (f" ({last['pattern']})" if goes_on else ""))
            last = rec
            returns[episode] += rec["reward"]
            by_pattern[rec["pattern"]][tuple(action)] += 1
            rows.append(dict(rec, d_gpu=action[0], d_cpu=action[1], pref=action[2]))
    if not rows:
        raise ReplayError(f"{path}: no trace record")
    histogram = sum(by_pattern.values(), Counter())

    out = Path(args.out) if args.out else path.parent
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "replay_summary.csv",
               ("episode", "step", "pattern", "reward", "d_gpu", "d_cpu",
                "pref", "desired_gpu", "desired_cpu", "users"), rows)

    print(f"trace: {len(rows)} steps over {len(returns)} episodes")
    for ep in sorted(returns):
        print(f"episode {ep}: return {returns[ep]:.4f}")
    print(f"action histogram ({len(rows)} steps):")
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
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
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

    p_eval = sub.add_parser(
        "evaluate", help="compare a checkpoint, if given, and the baselines on every pattern")
    common(p_eval, patterns=True)
    p_eval.add_argument("checkpoint", nargs="?",
                        help="path to a .kisc checkpoint; without one, the baselines alone")
    p_eval.set_defaults(func=cmd_evaluate)

    p_replay = sub.add_parser("replay", help="summarize a JSON-lines trace")
    p_replay.add_argument("trace", help="path to trace.jsonl")
    p_replay.add_argument("--out", help="output directory for plot CSV")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()      # so that a reader that stopped shows here
        return status
    except BrokenPipeError:
        # stdout's reader stopped (`| head -1`): devnull takes the exit-time flush, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # config, replay, checkpoint and I/O errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
