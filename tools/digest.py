"""Determinism digest of kisim: the sha256 prefix of every output file.

Runs five commands of the kisim in this checkout into a temporary directory:

- `train --seed 42` (the default 100-episode training run);
- `evaluate` of that run's checkpoint;
- `baseline`;
- the 30-episode dense train, `train --episodes 30 --set control_interval_s=1
  --set users_min=1 --set users_max=5`;
- `train --seed 5`, the default training run at a second seed, into `train_seed5/`.

The four independent chains (`train` then `evaluate`, the seed-5 `train`, the
dense `train` and `baseline`) run on min(2, CPUs) worker processes started by
`spawn`, so no worker inherits the parent's BLAS thread pool; each worker's kisim
import sets the BLAS thread count as a lone run's would. The digest then prints
one `<run>/<file>  <sha256 prefix>` line per output file, in path order. The
`out_dir` line of `effective_config.txt` names the temporary directory, so it is
masked before hashing. Two checkouts are byte for byte alike when their outputs
are; compare with `diff <(python tools/digest.py) <(python ../other/tools/digest.py)`.

Usage: python tools/digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import os
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kisim.cli import main  # noqa: E402

OUT_DIR_LINE = re.compile(rb"^out_dir = .*$", re.MULTILINE)


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"kisim {' '.join(argv)} exited {status}")


def run_chain(chain: list[list[str]]) -> None:
    for argv in chain:
        run(argv)


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "effective_config.txt":
        data = OUT_DIR_LINE.sub(b"out_dir = <masked>", data)
    return hashlib.sha256(data).hexdigest()[:16]


def main_digest() -> None:
    with tempfile.TemporaryDirectory(prefix="kisim-digest-") as tmp:
        root = Path(tmp)
        train, evaluate, baseline, dense, train_seed5 = (
            str(root / name) for name in ("train", "evaluate", "baseline", "dense", "train_seed5"))
        chains = [      # longest first, so that two workers finish close together
            [["train", "--seed", "42", "--out", train],
             ["evaluate", str(Path(train) / "checkpoint.kisc"), "--out", evaluate]],
            [["train", "--seed", "5", "--out", train_seed5]],
            [["train", "--episodes", "30", "--set", "control_interval_s=1",
              "--set", "users_min=1", "--set", "users_max=5", "--out", dense]],
            [["baseline", "--out", baseline]],
        ]
        with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            list(pool.map(run_chain, chains))   # re-raises a chain's failure
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(f"{path.relative_to(root).as_posix()}  {file_digest(path)}")


if __name__ == "__main__":
    main_digest()
