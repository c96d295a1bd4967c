"""Run one seqstack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tiny-ci --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports seqstack from `src/`
next to this directory, never from an installed copy. With `--trace 0` it
prints the end-to-end metrics, with `--trace 1` the per-layer ones. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Scratch files live under
`.perfbench-work/` in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_seqstack() -> None:
    """Put the checkout's src/ first on the path and insist the import came from it.

    BLAS is pinned to one thread, the package default, whatever the caller's
    environment says, so every run measures the same configuration. NumPy's
    transparent-huge-page hint is turned off: whether huge pages are free
    depends on the host's memory at that moment, and with the hint on, the
    same desk-scale run varied by a fifth from one process to the next.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = ROOT / "src"
    if not (src / "seqstack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no seqstack sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import seqstack

    if Path(seqstack.__file__).resolve().parent != src / "seqstack":
        sys.exit(f"perfbench: imported seqstack from {seqstack.__file__}, not {src}")


def main(argv=None) -> int:
    import_seqstack()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=scratch))
    try:
        metrics, ledger = workloads.run(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
