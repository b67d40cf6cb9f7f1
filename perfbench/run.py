"""matchpoly benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-theorems, sweep-eigen (cold ``run_sweep`` campaigns) and
tree-queries, graph-queries (library-session queries on seeded graphs).
All work runs in fresh interpreters started here (worker.py), one at a
time, so memo caches start cold and no two workers share the two cores.
The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Details and provenance go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS as PREFIX_LAYER  # noqa: E402
from workloads import MIN_QUERY_OPS, SWEEPS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170.0
DIGESTS = HERE / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

CAMPAIGNS = [c for plan in SWEEPS.values() for c, _, _ in plan]

# Functions every workload calls report self time in seconds.  Functions
# that some workload never calls report self time as a share of the traced
# run instead, so that no time metric is a structural zero.
CALLED_EVERYWHERE = (
    "realroots.largest_real_root_interval",
    "factor.factor_irreducible",
    "intpoly.root_multiplicity",
    "matchcore.matching_polynomial",
    "thetaclass.root_classes",
    "thetaclass.mult_of",
    "thetaclass.theta_partition",
    "graphs.canonical_code",
    "graphs.delete_vertices",
)
CALLED_SOMEWHERE = (
    "numberfield.kernel_basis",
    "thetaclass.construct_eigenvector",
    "covers.min_path_cover",
    "covers.is_extremal",
)
LAYERS = tuple(PREFIX_LAYER.values())

# Where each function's work is expected to go when the benchmark was
# defined: its self-time share should reach MOST_SHARE on the "most"
# workloads and stay below it on the "little" ones.  A traced run reports
# every row that its own shares contradict.
MOST_SHARE = 0.05
EXPECTED = {
    "realroots.largest_real_root_interval": (
        ("sweep-theorems", "tree-queries"),
        ("sweep-eigen",),
    ),
    "numberfield.kernel_basis": (
        ("sweep-eigen", "tree-queries"),
        ("sweep-theorems", "graph-queries"),
    ),
    "factor.factor_irreducible": (("tree-queries",), ("sweep-theorems", "sweep-eigen")),
    "intpoly.root_multiplicity": (("tree-queries", "sweep-theorems"), ("graph-queries",)),
    "matchcore.matching_polynomial": (
        ("graph-queries", "sweep-theorems", "sweep-eigen"),
        ("tree-queries",),
    ),
    "covers.min_path_cover": (("graph-queries",), ("tree-queries",)),
    "covers.enumerate_covers": (
        ("sweep-theorems",),
        ("sweep-eigen", "tree-queries", "graph-queries"),
    ),
    "covers.is_extremal": (
        ("sweep-theorems",),
        ("sweep-eigen", "tree-queries", "graph-queries"),
    ),
    "graphs.canonical_code": (("sweep-theorems", "sweep-eigen"), ("graph-queries",)),
    "graphs.delete_vertices": (("sweep-theorems", "sweep-eigen"), ("graph-queries",)),
}


class WorkerFailed(Exception):
    pass


class Run:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.children: list[dict] = []

    def spawn(self, mode: str, **extra) -> dict:
        a = self.args
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--mode", mode,
            "--digests", str(a.digests),
        ]
        if a.tiny:
            cmd.append("--tiny")
        for key, value in extra.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise WorkerFailed("run deadline passed")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)],
                stdout=subprocess.PIPE,
                cwd=ROOT,
                timeout=remaining,
                check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
        res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        res["mode"] = mode
        res["wall_s"] = time.monotonic() - t0
        self.children.append(res)
        return res


def measure(run: Run) -> tuple[dict, list[dict], list[str]]:
    a = run.args
    if a.workload in SWEEPS:
        # Whole cold passes, each in a fresh worker, while another fits.
        workers = [run.spawn("measure")]
        total = workers[-1]["wall_s"]
        while total + workers[-1]["wall_s"] <= a.seconds:
            workers.append(run.spawn("measure"))
            total += workers[-1]["wall_s"]
    else:
        min_ops = 2 if a.tiny else MIN_QUERY_OPS
        workers = [run.spawn("measure", budget=a.seconds, min_ops=min_ops)]
    setups = [w["setup_s"] for w in workers]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.spawn("setup")["setup_s"])
    lat = [t for w in workers for t in w["lat"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(w["ops"] for w in workers) / sum(w["op_time"] for w in workers),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "ok_ratio": 1.0 - failed / attempted,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, workers, []


def trace(run: Run) -> tuple[dict, list[dict], list[str]]:
    """An untraced worker and a traced worker over the same ops."""
    a = run.args
    spans = ROOT / ".perfbench_out" / f"spans-{a.workload}-seed{a.seed}.bin"
    if a.workload in SWEEPS:
        plain = run.spawn("measure")
        traced = run.spawn("trace", spans=spans)
    else:
        plain = run.spawn("measure", budget=a.seconds / 2, min_ops=1)
        traced = run.spawn("trace", ops=plain["ops"], spans=spans)
    tr = traced["trace"]
    calls, counts = tr["calls"], tr["counts"]
    total = tr["traced_s"] * traced["speed_factor"]
    self_s = {name: s * traced["speed_factor"] for name, s in tr["self_s"].items()}
    metrics = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for f in CALLED_EVERYWHERE:
        put(f + ".calls", calls.get(f, 0), "count")
        put(f + ".self_s", self_s.get(f, 0.0), "s")
    for f in CALLED_SOMEWHERE:
        put(f + ".calls", calls.get(f, 0), "count")
        put(f + ".self_share", ratio(self_s.get(f, 0.0), total), "ratio")
    for f in ("realroots.largest_real_root_interval", "factor.factor_irreducible"):
        put(f + ".degree_sum", counts.get(f + ".degree_sum", 0), "count")
    put("numberfield.kernel_basis.cells", counts.get("numberfield.kernel_basis.cells", 0), "count")
    put(
        "intpoly.root_multiplicity.hit_ratio",
        ratio(
            counts.get("intpoly.root_multiplicity.divisions_ok", 0),
            counts.get("intpoly.root_multiplicity.divisions", 0),
        ),
        "ratio",
    )
    put(
        "matchcore.cache_miss_ratio",
        ratio(traced["cache_growth"], calls.get("matchcore.matching_polynomial", 0)),
        "ratio",
    )
    put("covers.enumerate_covers.yielded", counts.get("covers.enumerate_covers.yielded", 0), "count")
    put(
        "covers.enumerate_covers.self_share",
        ratio(self_s.get("covers.enumerate_covers", 0.0), total),
        "ratio",
    )
    put(
        "covers.is_extremal.extremal_ratio",
        ratio(counts.get("covers.is_extremal.extremal", 0), calls.get("covers.is_extremal", 0)),
        "ratio",
    )
    put(
        "graphs.enumerate_trees.self_share",
        ratio(self_s.get("graphs.enumerate_trees", 0.0), total),
        "ratio",
    )
    for c in CAMPAIGNS:
        camp = plain["campaigns"].get(c, {"items": 0, "checks": 0, "s": 0.0})
        put(f"sweeps.{c}.items", camp["items"], "count")
        put(f"sweeps.{c}.checks", camp["checks"], "count")
        put(f"sweeps.{c}.items_per_s", ratio(camp["items"], camp["s"]), "1/s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer_self[PREFIX_LAYER[name.split(".")[0]]] += s
    for layer in LAYERS:
        put(f"share.{layer}", layer_self[layer] / total, "ratio")
    put("share.outside", max(0.0, 1.0 - sum(layer_self.values()) / total), "ratio")
    put("trace.traced_s", total, "s")
    put("trace.overhead_ratio", traced["op_time"] / plain["op_time"], "ratio")

    contradictions = []
    for fname, (most, little) in EXPECTED.items():
        share = self_s.get(fname, 0.0) / total
        if a.workload in most and share < MOST_SHARE:
            contradictions.append(f"{fname}: expected most work on {a.workload}, self share {share:.3f}")
        if a.workload in little and share >= MOST_SHARE:
            contradictions.append(f"{fname}: expected little work on {a.workload}, self share {share:.3f}")
    return metrics, [plain, traced], contradictions


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=False,
        )
        commit = proc.stdout.decode().strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    ap.add_argument("--digests", default=str(DIGESTS), help="recorded per-op digests")
    args = ap.parse_args()

    if not (ROOT / "src" / "matchpoly" / "__init__.py").is_file():
        print(f"perfbench: no matchpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    run = Run(args)
    try:
        metrics, workers, contradictions = (trace if args.trace else measure)(run)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    for p in problems[:20]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    for c in contradictions:
        print(f"perfbench: contradicts expectation: {c}", file=sys.stderr)
    prov = provenance(args)
    print("perfbench: " + json.dumps(prov, sort_keys=True), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "provenance": prov,
        "result": result,
        "contradictions": contradictions,
        "problems": problems,
        "children": [
            {k: v for k, v in c.items() if k not in ("lat", "digests")} for c in run.children
        ],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".perfbench_out" / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
