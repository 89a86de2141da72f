"""Run one ``hopftrees.cli`` invocation with a probe, for the traced run.

Usage: ``python bench/cli_probe.py <plain|trace|alloc> <out.json> <cli args...>``

``plain`` only times ``main()``; ``trace`` also installs the benchmark's spans
and counters; ``alloc`` records the tracemalloc peak.  The probe writes its
figures to ``out.json`` and exits with ``main()``'s exit code, leaving the
CLI's standard output untouched.
"""

import json
import sys
import time


def probe(mode: str, out_path: str, argv: list[str]) -> int:
    if mode == "alloc":
        import tracemalloc

        tracemalloc.start()
    import hopftrees.cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.reset()
    start = time.perf_counter()
    code = hopftrees.cli.main(argv)
    record = {"main_s": time.perf_counter() - start}
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    if mode == "alloc":
        record["alloc_peak"] = tracemalloc.get_traced_memory()[1]
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(probe(sys.argv[1], sys.argv[2], sys.argv[3:]))
