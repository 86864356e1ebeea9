#!/usr/bin/env python3
"""Record the reference verdicts the benchmark checks every run against.

For each seed in ``REFERENCE_SEEDS``, one cold in-process pass over the
benchmark chip; the peak (V, seven significant digits) and NRC verdict of
every victim are written to ``perfbench/reference.json``.  Re-record only
when a change is meant to move the numerical results; the benchmark
tolerates a relative peak drift of ``workloads.REFERENCE_RTOL`` and no
verdict change.

Usage (from the repository root)::

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The seeds with a recorded reference.
REFERENCE_SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.technology import build_default_library
    from tracing import NullTracer
    from workloads import CHIP, REFERENCE_FILE, TECHNOLOGY, Run, design_pass, verdicts

    technology = build_default_library(TECHNOLOGY).technology

    seeds = {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workspace = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    try:
        for seed in REFERENCE_SEEDS:
            run = Run(workspace / str(seed), seed, NullTracer())
            lines = list(run.chip.spef_lines(technology))
            result = design_pass(run, lines, run.fresh_dir("cache"))
            if run.failures:
                print(f"seed {seed}: {run.failures}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {
                net: [float(f"{peak:.7g}"), fails]
                for net, (peak, fails, _margin) in sorted(verdicts(result.report).items())
            }
            print(f"seed {seed}: {len(seeds[str(seed)])} victims in {result.seconds:.1f} s")
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    payload = {"chip": CHIP, "technology": TECHNOLOGY, "seeds": seeds}
    REFERENCE_FILE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
