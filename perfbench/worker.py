"""One fresh interpreter of a benchmark run: set up, run ops, check them.

Started by run.py, never by hand.  Each worker imports matchpoly from the
checkout's ``src`` directory, so memo caches start cold as on a CLI call.
It prints one JSON object on stdout; op failures are counted, not raised.

Times are scaled to a reference machine speed.  The shared machine this
benchmark was built on changes speed by +-20% from one minute to the next
for every process alike, so while ops run a timer signal interrupts them
every CALIBRATION_EVERY_S to time a fixed pure-Python calibration loop.
The calibration time is taken out of the op it interrupted, and each op's
time is multiplied by CALIBRATION_REF_S / (mean calibration time within
CALIBRATION_WINDOW_S of the op).  Scaling by the calibrations nearest in
time removed three quarters of the run-to-run spread of a fixed sweep in
repeated trials.  The raw wall-clock sums are reported next to the scaled
ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREGENERATED_QUERIES = 1000
DEFAULT_SEED = 0

# Median time of _calibration_work over about 400 workers on the 2-core
# x86-64 machine the benchmark was defined on (Python 3.11.7); observed
# range 4.1-11.7 ms.  Scaled times are seconds at that typical speed.
CALIBRATION_REF_S = 0.0070
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.3
CALIBRATION_BURST = 5


def _calibration_work():
    """Fixed interpreter work: small-int arithmetic, dict updates and
    big-denominator Fractions, like the library's own inner loops."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + 3 * i
        acc += (i * i) % 7
    h = Fraction(0)
    for i in range(1, 400):
        h += Fraction(1, i)
    return acc, h


class Speed:
    """Calibration samples, taken in bursts or on a timer while ops run, and
    the scale factors they give.  ``spent`` is the total time calibrating,
    for taking it out of the op a timer sample interrupted."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, count: int = 1) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            for _ in range(count):
                t = time.perf_counter()
                _calibration_work()
                self.samples.append((t, time.perf_counter() - t))
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start
            self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Scale for a time measured over [start, end]: calibrations within
        CALIBRATION_WINDOW_S of it, or all of them."""
        near = []
        if start is not None:
            lo, hi = start - CALIBRATION_WINDOW_S, end + CALIBRATION_WINDOW_S
            near = [dt for t, dt in self.samples if lo <= t <= hi]
        return CALIBRATION_REF_S / statistics.fmean(near or [dt for _, dt in self.samples])

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        return [dt * self.factor(t, t + dt) for t, dt in spans]


def _import_matchpoly():
    sys.path.insert(0, str(ROOT / "src"))
    import matchpoly

    where = Path(matchpoly.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"matchpoly imported from {where}, not from this checkout")
    return matchpoly


def _reference(args) -> object:
    """Recorded per-op digests for the default seed, or None."""
    if args.seed != DEFAULT_SEED or not args.digests:
        return None
    key = args.workload + (":tiny" if args.tiny else "")
    try:
        with open(args.digests) as fh:
            return json.load(fh).get(key)
    except FileNotFoundError:
        print(f"perfbench: no recorded digests at {args.digests}", file=sys.stderr)
        return None


def _cache_len(mp) -> int:
    cache = getattr(mp.matchcore, "_cache", None)
    return len(cache) if cache is not None else 0


def _end_setup(args, speed: Speed, result: dict) -> None:
    raw = time.monotonic() - args.t0
    result["generation_s"] = time.perf_counter() - args.gen_start
    speed.sample(CALIBRATION_BURST)
    result["setup_raw_s"] = raw
    result["setup_s"] = raw * speed.factor()
    # Timer samples inside a traced run would land in its spans, so traced
    # workers calibrate only in bursts before and after their ops.
    if args.mode == "measure":
        speed.start_timer()


def run_sweeps(mp, W, args, tracer, speed: Speed, result: dict) -> None:
    plan = (W.TINY_SWEEPS if args.tiny else W.SWEEPS)[args.workload]
    tree_counts = {}
    for n in range(1, max(n_max for _, n_max, _ in plan) + 1):
        tree_counts[n] = sum(1 for _ in mp.enumerate_trees(n))
    _end_setup(args, speed, result)
    if args.mode == "setup":
        return

    # Per-item latency: time the function run_sweep calls once per item.
    items: list[tuple[float, float]] = []
    run_item = getattr(mp.sweeps, "_run_item", None)
    if run_item is None:
        print("perfbench: matchpoly.sweeps._run_item is gone; per-item latency "
              "falls back to the campaign mean", file=sys.stderr)
    else:
        from tracer import rebind

        def timed_item(item):
            if tracer is not None:
                tracer.op_id += 1
            spent = speed.spent
            t = time.perf_counter()
            try:
                return run_item(item)
            finally:
                items.append((t, time.perf_counter() - t - (speed.spent - spent)))

        rebind(run_item, timed_item)

    reference = _reference(args)
    cache_before = _cache_len(mp)
    lat: list[float] = []
    for campaign, n_max, randoms in plan:
        expected = sum(tree_counts[n] for n in range(1, n_max + 1)) + randoms
        cfg = mp.SweepConfig(campaign=campaign, n_max=n_max, seed=args.seed, jobs=1)
        first_item = len(items)
        spent = speed.spent
        t = time.perf_counter()
        try:
            report = mp.run_sweep(cfg)
        except Exception as exc:  # the whole campaign is lost: count every item
            end = time.perf_counter()
            failed, problems, report = expected, [f"{campaign}: run_sweep raised {exc!r}"], None
        else:
            end = time.perf_counter()
            failed, problems = W.check_sweep(report, expected)
            text_digest = W.digest(report.to_json_text())
            result["digests"][campaign] = text_digest
            if reference is not None and reference.get(campaign) != text_digest:
                failed = expected
                problems.append(f"{campaign}: report digest {text_digest} != recorded")
        raw = end - t - (speed.spent - spent)
        if tracer is not None:
            speed.sample(CALIBRATION_BURST)
        campaign_items = items[first_item:]
        if run_item is not None and len(campaign_items) == expected:
            item_lat = speed.scaled(campaign_items)
            outside_items = max(0.0, raw - sum(dt for _, dt in campaign_items))
            elapsed = sum(item_lat) + outside_items * speed.factor(t, end)
            lat += item_lat
        else:
            elapsed = raw * speed.factor(t, end)
            lat += [elapsed / expected] * expected
        result["op_time_raw"] += raw
        result["op_time"] += elapsed
        result["attempted"] += expected
        result["failed"] += failed
        result["problems"] += problems
        result["campaigns"][campaign] = {
            "s": elapsed,
            "items": report.items if report else 0,
            "checks": report.checks_run if report else 0,
        }
    result["lat"] = lat
    result["ops"] = result["attempted"]
    result["cache_growth"] = _cache_len(mp) - cache_before


def run_queries(mp, W, args, tracer, speed: Speed, result: dict) -> None:
    trees = args.workload == "tree-queries"
    stream = (W.tree_query_inputs if trees else W.graph_query_inputs)(args.seed, args.tiny)
    graphs = [mp.Graph(n, edges) for n, edges in (next(stream) for _ in range(PREGENERATED_QUERIES))]
    _end_setup(args, speed, result)
    if args.mode == "setup":
        return

    reference = _reference(args)
    ops: list[tuple[float, float]] = []
    digests: list[str] = []
    cache_before = _cache_len(mp)
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif result["op_time_raw"] >= args.budget and i >= args.min_ops:
            break
        g = graphs[i] if i < len(graphs) else mp.Graph(*next(stream))
        if tracer is not None:
            tracer.op_id = i
        spent = speed.spent
        t = time.perf_counter()
        try:
            out = W.run_query(mp, g, eigenvectors=trees)
        except Exception as exc:
            dt = time.perf_counter() - t - (speed.spent - spent)
            problems = [f"op {i}: raised {exc!r}"]
            digests.append("")
        else:
            dt = time.perf_counter() - t - (speed.spent - spent)
            problems, op_digest = W.check_query(mp, g, out, eigenvectors=trees)
            problems = [f"op {i}: {p}" for p in problems]
            digests.append(op_digest)
            if reference is not None and i < len(reference) and reference[i] != op_digest:
                problems.append(f"op {i}: digest {op_digest} != recorded {reference[i]}")
        ops.append((t, dt))
        result["op_time_raw"] += dt
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["problems"] += problems
        i += 1
    if tracer is not None:
        speed.sample(CALIBRATION_BURST)
    result["lat"] = speed.scaled(ops)
    result["op_time"] = sum(result["lat"])
    result["ops"] = i
    result["digests"]["ops"] = digests
    result["cache_growth"] = _cache_len(mp) - cache_before


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--budget", type=float, default=0.0, help="seconds of op time (queries)")
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--ops", type=int, default=None, help="exact query op count")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--digests", default="")
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    mp = _import_matchpoly()
    import workloads as W

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed = Speed()
    args.gen_start = time.perf_counter()
    result = {
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "op_time": 0.0,
        "op_time_raw": 0.0,
        "digests": {},
        "campaigns": {},
        "lat": [],
    }
    if args.workload in W.SWEEPS:
        run_sweeps(mp, W, args, tracer, speed, result)
    else:
        run_queries(mp, W, args, tracer, speed, result)
    speed.stop_timer()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["speed_factor"] = speed.factor()
    result["calibrations"] = len(speed.samples)
    if tracer is not None:
        self_s, calls = tracer.self_times()
        result["trace"] = {
            "self_s": self_s,
            "calls": calls,
            "counts": dict(tracer.counts),
            "spans": len(tracer.fid),
            "traced_s": result["generation_s"] + result["op_time_raw"],
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
