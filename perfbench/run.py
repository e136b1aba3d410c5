"""The FlashFlow benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tor-campaign --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes a ``flashflow-trace/1`` file under
``.perfbench_out/``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every output check passed, 1 when one failed, and 2
when the checkout has no program to measure. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tor-campaign", "bwauth-daemon", "attack-campaign", "shadow-compare")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    # One CPU for every thread of the run (threads inherit it), so the
    # speed probes time the CPU the units ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The run manifest asks git for the revision; keep git's search for
    # a repository inside this checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(REPO.parent))
    from perfbench.bench import run_workload

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=REPO / ".perfbench_out",
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
