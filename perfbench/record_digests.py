"""Record the per-op output digests that runs with the default seed compare
against (perfbench/digests.json).

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known good: afterwards any change
in a sweep report or a query result at the default seed counts as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import DEFAULT_SEED  # noqa: E402
from workloads import SWEEPS, WORKLOADS  # noqa: E402

RECORDED_QUERY_OPS = 300
RECORDED_TINY_QUERY_OPS = 40


def record(workload: str, tiny: bool) -> object:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(DEFAULT_SEED),
        "--mode", "measure",
        "--t0", repr(time.monotonic()),
    ]
    if tiny:
        cmd.append("--tiny")
    if workload not in SWEEPS:
        cmd += ["--ops", str(RECORDED_TINY_QUERY_OPS if tiny else RECORDED_QUERY_OPS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=HERE.parent, check=True)
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if res["failed"]:
        raise SystemExit(f"{workload}: {res['failed']} ops failed; not recording: {res['problems'][:3]}")
    return res["digests"] if workload in SWEEPS else res["digests"]["ops"]


def main() -> int:
    out = {}
    for workload in WORKLOADS:
        for tiny in (True, False):
            key = workload + (":tiny" if tiny else "")
            out[key] = record(workload, tiny)
            print(f"recorded {key}", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
