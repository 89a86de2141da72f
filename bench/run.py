"""Benchmark entry point: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload graft --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1              # every workload in turn, one result line each
    python3 bench/run.py --write-digests [--workload graft]

Each round of a workload runs in a fresh interpreter (``bench/worker.py``),
one round at a time, and rounds repeat until ``--seconds`` have passed; every
round runs the same seeded operations.  End-to-end times are counted in calls
of the reference loop (``bench/reference.py``) run between the operations.
With ``--trace 1`` the run alternates untraced, traced and allocation-tracing
rounds and prints the per-layer metrics instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DIGESTS = os.path.join(BENCH, "digests.json")
WORKLOADS = ("graft", "sweep", "operators", "cli")
DIGEST_SEEDS = list(range(0, 21)) + [9001]
DEADLINE_S = 170  # every run ends well within 180 s

# span name in the tracer -> per-layer self-time metric
SELF_FRAC = {
    "trees.attach_all": "trees.attach_all.self_frac",
    "trees.parse": "trees.parse.self_frac",
    "trees.enumerate": "trees.enumerate.self_frac",
    "gl.product": "gl.product.self_frac",
    "gl.coproduct": "gl.coproduct.self_frac",
    "axioms.antipode": "axioms.antipode.self_frac",
    "axioms.verify": "axioms.verify.self_frac",
    "algebra.extend": "algebra.extend.self_frac",
    "ck.coproduct": "ck.coproduct.self_frac",
    "shuffle.product": "shuffle.product.self_frac",
    "perm.product": "perm.product.self_frac",
    "perm.coproduct": "perm.coproduct.self_frac",
    "diff_ops.tree_operator": "diff_ops.tree_operator.self_frac",
    "diff_ops.word_to_trees": "diff_ops.word_to_trees.self_frac",
    "connection": "connection.self_frac",
}
COUNTS = (
    "trees.attach_all.calls", "trees.attach_all.distinct", "trees.canonicalize.calls",
    "trees.encode.calls", "gl.product.calls", "gl.coproduct.calls", "axioms.antipode.hits",
    "axioms.antipode.misses", "axioms.verify.checks", "algebra.lc_new.calls",
    "algebra.lc_add.calls", "algebra.lc_sort.calls", "algebra.terms_in", "algebra.terms_out",
    "ck.coproduct.calls", "ck.cuts", "ck.pairing.calls", "diff_ops.tree_operator.calls",
    "diff_ops.poly_mul.calls", "diff_ops.derivative.calls",
    "connection.covariant_derivative.calls", "connection.vector_differential.calls",
)
UNITS = {"_s": "s", "_mb": "MB", "_frac": "frac", "trace_overhead": "ratio", "yield": "ratio"}


class BenchError(Exception):
    pass


def spawn_round(workload: str, seed: int, mode: str, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed), mode, repr(spawned)],
        cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1),
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} round ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def op_norms(rnd: dict) -> list[float]:
    """Each operation's time in reference calls.

    An operation long enough to hold at least three reference calls made from
    the timer is divided by their trimmed mean, which follows the machine's
    speed through the operation; a shorter one by the median of the reference
    calls made just before and after it.
    """
    times, refs = rnd["op_times"], rnd["ref_times"]
    k = len(refs) // (len(times) + 1)
    return [
        t / (trimmed_mean(inside) if len(inside) >= 3 else statistics.median(refs[i * k:(i + 2) * k]))
        for i, (t, inside) in enumerate(zip(times, rnd["op_refs"]))
    ]


def summarise(rounds: list[dict]) -> dict:
    """End-to-end figures of a set of rounds of the same operations.

    Each operation's normalised time is its trimmed mean over the rounds;
    norm_time is their sum and call_p50_norm their median.
    """
    per_op = [trimmed_mean(values) for values in zip(*(op_norms(r) for r in rounds))]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "norm_time": sum(per_op),
        "call_p50_norm": statistics.median(per_op),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "wall_s": statistics.median(sum(r["op_times"]) for r in rounds),
        "ref_s": statistics.median(t for r in rounds for t in r["ref_times"]),
    }


def check_rounds(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    errors = [e for r in rounds for e in r["errors"]]
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("rounds with the same inputs rendered different results")
    with open(DIGESTS, encoding="utf-8") as handle:
        known = json.load(handle).get(workload, {})
    if "warmup" not in known:
        errors.append(f"{DIGESTS} has no digests for {workload}")
    elif rounds[0]["warm_digest"] != known["warmup"]:
        errors.append("warm-up results differ from the recorded digest")
    recorded = known.get("seeds", {}).get(str(seed))
    if recorded is not None and rounds[0]["digest"] != recorded:
        errors.append(f"results for seed {seed} differ from the recorded digest")
    return errors


def interpreter_costs() -> dict:
    """Start-up of a bare interpreter and the import time of ``hopftrees.cli``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    startups, imports = [], []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        startups.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", "import time; s = time.perf_counter(); import hopftrees.cli; "
             "print(time.perf_counter() - s)"],
            check=True, cwd=ROOT, env=env, capture_output=True, text=True,
        ).stdout
        imports.append(float(out))
    return {"cli.startup_s": statistics.median(startups), "cli.import_s": statistics.median(imports)}


def merged_trace(rnd: dict) -> dict:
    """Counts and span self times of a traced round, the CLI's children included."""
    traces = [rnd["trace"]] if "trace" in rnd else []
    traces += [p["trace"] for p in rnd.get("probes", []) if "trace" in p]
    counts: dict = {}
    self_s: dict = {}
    for trace in traces:
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in trace["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
    return {"counts": counts, "self_s": self_s}


def layer_metrics(rnd: dict) -> dict:
    trace = merged_trace(rnd)
    # spans also cover the reference calls the timer made inside them, so the
    # phase they are a share of is the operations' wall time
    counts, phase = trace["counts"], sum(rnd["op_walls"])
    out = {name: counts.get(name, 0) for name in COUNTS}
    grafts = counts.get("trees.graft.canonicalize", 0)
    out["trees.graft.yield"] = counts.get("trees.attach_all.distinct", 0) / grafts if grafts else 0.0
    for span, name in SELF_FRAC.items():
        out[name] = trace["self_s"].get(span, 0.0) / phase
    return out


def traced_metrics(untraced, traced, allocs, interpreter) -> dict:
    base, with_trace = summarise(untraced), summarise(traced)
    layers = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(interpreter)
    probes = [p for r in untraced for p in r.get("probes", [])]
    metrics["cli.main_frac"] = (
        sum(p["main_s"] for p in probes) / sum(sum(r["op_times"]) for r in untraced) if probes else 0.0
    )
    peaks = [max([r.get("alloc_peak", 0)] + [p.get("alloc_peak", 0) for p in r.get("probes", [])])
             for r in allocs]
    metrics.update({
        "bench.wall_s": base["wall_s"],
        "bench.ref_s": base["ref_s"],
        "bench.trace_overhead": with_trace["norm_time"] / base["norm_time"],
        "bench.peak_alloc_mb": statistics.median(peaks) / 2**20,
    })
    return metrics


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    modes = ("probe", "trace", "alloc") if trace else ("plain",)
    rounds: dict[str, list] = {mode: [] for mode in modes}
    while True:
        for mode in modes:
            remaining = DEADLINE_S - (time.monotonic() - started)
            rounds[mode].append(spawn_round(workload, seed, mode, remaining))
        if time.monotonic() - started >= seconds:
            break
    every = [r for rs in rounds.values() for r in rs]
    errors = check_rounds(workload, seed, every)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        figures = traced_metrics(rounds["probe"], rounds["trace"], rounds["alloc"], interpreter_costs())
    else:
        summary = summarise(rounds["plain"])
        print(f"{workload} seed {seed}: {len(every)} rounds, bench.wall_s {summary['wall_s']:.4f}, "
              f"bench.ref_s {summary['ref_s']:.6f}", file=sys.stderr)
        figures = {name: summary[name] for name in ("setup_s", "norm_time", "call_p50_norm", "peak_rss_mb")}
    units = {"norm_time": "ref", "call_p50_norm": "ref"}
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(len(r["failed"]) for r in every),
        "metrics": {name: {"value": value, "unit": units.get(name) or unit_of(name)}
                    for name, value in figures.items()},
    }


def write_digests(workloads) -> None:
    known = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            known = json.load(handle)
    for workload in workloads:
        seeds = {}
        for seed in DIGEST_SEEDS:
            rnd = spawn_round(workload, seed, "plain", DEADLINE_S)
            if rnd["errors"] or rnd["failed"]:
                raise BenchError(f"{workload} seed {seed} fails its checks: {rnd['errors'][:3]}")
            seeds[str(seed)] = rnd["digest"]
            print(f"{workload} seed {seed}: {rnd['digest']}", file=sys.stderr)
        known[workload] = {"warmup": rnd["warm_digest"], "seeds": seeds}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the digests of the current code's results and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopftrees", "__init__.py")):
        print(f"error: no hopftrees sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.write_digests:
            write_digests([args.workload] if args.workload else WORKLOADS)
            return 0
        for workload in [args.workload] if args.workload else WORKLOADS:
            print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
