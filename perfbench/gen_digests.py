"""Regenerate ``expected_digests.json``, the benchmark's output contract.

Run from the repository root after a change that is *meant* to alter
simulated behaviour (a digest changes only then)::

    python3 perfbench/gen_digests.py --jobs 2

For every seed in ``DIGEST_SEEDS`` it records the truncated
``stats_digest`` of each run the workloads make: at ``small`` the paper
kernels under MESI/WARDen and the synthetic traces under all protocols; at
``test`` both under all protocols (``replay-cold`` and the tests).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.run import run_benchmark  # noqa: E402
from repro.bench import PAPER_ORDER  # noqa: E402
from repro.common.config import dual_socket  # noqa: E402

import workloads  # noqa: E402

RUNS = {
    "small": [(b, p) for b in PAPER_ORDER for p in workloads.PAPER_PROTOCOLS]
    + [(b, p) for b in workloads.SYNTH for p in workloads.ALL_PROTOCOLS],
    "test": [(b, p) for b in list(PAPER_ORDER) + list(workloads.SYNTH)
             for p in workloads.ALL_PROTOCOLS],
}


def digests_for_seed(seed: int) -> dict:
    config = dual_socket()
    return {
        size: {
            f"{b}/{p}": workloads.short_digest(run_benchmark(
                b, p, config, size=size, seed=seed,
                use_cache=False, use_disk_cache=False,
            ).stats)
            for b, p in runs
        }
        for size, runs in RUNS.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=str(workloads.DIGEST_FILE))
    args = parser.parse_args()
    seeds = list(workloads.DIGEST_SEEDS)
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            per_seed = pool.map(digests_for_seed, seeds)
    else:
        per_seed = [digests_for_seed(s) for s in seeds]
    out = {
        "seeds": seeds,
        "digests": {
            size: {key: [d[size][key] for d in per_seed] for key in per_seed[0][size]}
            for size in RUNS
        },
    }
    write_digests(out, args.out)
    return 0


def write_digests(out: dict, path: str) -> None:
    """One line per run key, so a change of behaviour reads as a small diff."""
    sizes = []
    for size, runs in sorted(out["digests"].items()):
        rows = ",\n".join(
            f"      {json.dumps(key)}: {json.dumps(col)}" for key, col in sorted(runs.items())
        )
        sizes.append(f"    {json.dumps(size)}: {{\n{rows}\n    }}")
    body = ",\n".join(sizes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "seeds": {json.dumps(out["seeds"])},\n'
            f'  "digests": {{\n{body}\n  }}\n}}\n'
        )


if __name__ == "__main__":
    sys.exit(main())
