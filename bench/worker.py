"""One round of one workload, in a fresh interpreter.

Usage: ``python bench/worker.py <workload> <seed> <mode> <spawned_at>``

Modes: ``plain`` is untraced; ``probe`` is untraced but runs each CLI
invocation through ``cli_probe.py`` to time ``main()``; ``trace`` installs
the spans and counters; ``alloc`` records the tracemalloc peak.

Set-up imports the library, generates the seeded inputs and runs the warm-up
operations.  The timed phase then runs every operation once, in order, with
calls of the reference loop interleaved between them, so process-wide caches
fill as they would for a user running these operations in one process.
Results are checked and digested after the timed phase.  The round prints
one JSON line; ``spawned_at`` is the ``time.monotonic()`` reading taken by the
parent just before it started this process, so set-up time includes
interpreter start.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402

REFERENCE_CALLS = 3  # reference calls before the first operation and after each one
SAMPLE_INTERVAL_S = 0.1  # a reference call this often while an operation runs
WORKDIR = os.path.join(ROOT, ".bench_work")


class InOpSampler:
    """Runs the reference loop from a timer signal while an operation runs.

    A long operation would otherwise be normalised by reference calls made
    only before and after it, while the machine's speed can change several
    times within it.  The handler runs between bytecodes of the operation in
    this process; the time it takes is recorded and later taken off the
    operation's time.
    """

    def __init__(self):
        self.records: list[tuple[float, float, float]] = []  # (enter, leave, reference call)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        enter = time.perf_counter()
        ref = reference.timed_reference()
        self.records.append((enter, time.perf_counter(), ref))

    def run(self, fn):
        """Return (result or exception, wall seconds, net seconds, reference calls made during it)."""
        self.records = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # an operation that raises counts as failed
                result = exc
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside = [r for r in self.records if start <= r[0] and r[1] <= end]
        busy = sum(leave - enter for enter, leave, _ in inside)
        return result, end - start, end - start - busy, [r[2] for r in inside]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def run_ops(ops):
    """Run operations once each; return results, failures and their errors."""
    results, errors = [], []
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # an operation that raises counts as failed
            results.append(exc)
            errors.append(f"{op.label}: raised {exc!r}")
    return results, errors


def check_all(ops, results):
    errors, texts = [], []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            texts.append(f"raised {type(result).__name__}")
            continue
        errors.extend(op.check(result))
        texts.append(op.render(result))
    return errors, digest(texts)


def round_(workload: str, seed: int, mode: str, spawned_at: float) -> dict:
    tracer = None
    if mode == "alloc":
        import tracemalloc

        tracemalloc.start()
    import hopftrees  # noqa: F401

    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    ctx = None
    if workload == "cli":
        cli_mode = {"plain": "direct", "probe": "plain"}.get(mode, mode)
        ctx = workloads.CliContext(ROOT, os.path.join(WORKDIR, str(os.getpid())), cli_mode, [])
    warmup, ops = workloads.WORKLOADS[workload](seed, ctx)
    warm_results, warm_failed = run_ops(warmup)
    warm_errors, warm_digest = check_all(warmup, warm_results)
    if ctx is not None:
        ctx.probe_files.clear()

    ref_times: list[float] = []
    op_times: list[float] = []
    op_walls: list[float] = []
    op_refs: list[list[float]] = []
    results: list = []
    failed: list[str] = []
    sampler = InOpSampler()
    if tracer is not None:
        tracer.reset()
    if mode == "alloc":
        tracemalloc.reset_peak()
    timed_start = time.monotonic()
    for _ in range(REFERENCE_CALLS):
        ref_times.append(reference.timed_reference())
    for op in ops:
        result, wall, seconds, refs = sampler.run(op.run)
        if isinstance(result, Exception):
            failed.append(f"{op.label}: raised {result!r}")
        op_times.append(seconds)
        op_walls.append(wall)
        op_refs.append(refs)
        results.append(result)
        for _ in range(REFERENCE_CALLS):
            ref_times.append(reference.timed_reference())
    out: dict = {}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    if mode == "alloc":
        out["alloc_peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    errors, timed_digest = check_all(ops, results)
    if ctx is not None:
        out["probes"] = []
        for path in ctx.probe_files:
            with open(path, encoding="utf-8") as handle:
                out["probes"].append(json.load(handle))
            os.remove(path)
        for name in os.listdir(ctx.workdir):
            os.remove(os.path.join(ctx.workdir, name))
        os.rmdir(ctx.workdir)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update({
        "setup_s": timed_start - spawned_at,
        "op_times": op_times,
        "op_walls": op_walls,
        "ref_times": ref_times,
        "op_refs": op_refs,
        "attempted": len(ops),
        "failed": failed,
        "errors": warm_failed + warm_errors + errors,
        "warm_digest": warm_digest,
        "digest": timed_digest,
        "peak_rss_mb": rss_kb / 1024,
    })
    return out


if __name__ == "__main__":
    name, seed, mode, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    print(json.dumps(round_(name, seed, mode, spawned)))
