"""One benchmark worker: a fresh process that sets up a workload and runs
its pipeline iterations in a closed loop.

``run.py`` starts it with the BLAS and OpenMP thread variables already set
to 1, so they hold before numpy loads.  Usage (from the checkout root)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --work DIR --launched T \
        --launched-ticks STEAL,BUSY

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, and ``--launched-ticks`` its ``speed.cpu_ticks()`` reading;
set-up time runs from there to the first timed iteration.  Set-up and every
iteration are metered (``speed.Meter``), and the worker reports each time
both raw and adjusted to reference seconds.  It prints one JSON object on
its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from speed import Meter

# functions the benchmark calls directly, traced as layer entry points
ENTRY_POINTS = (("cli", "run"), ("schrodinger", "planar_field_from_function"),
                ("tiling", "run_tiling"), ("schrodinger", "count_rapid_disks"),
                ("schrodinger", "core_field"), ("nodal", "extract_nodal_set"))


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_iteration(workload, index, meter, tracer=None):
    inp = workload.inputs[index]
    out_dir = (tempfile.mkdtemp(prefix="it-", dir=workload.work_dir)
               if workload.fresh_out_dir else None)
    if tracer is not None:
        tracer.begin_iteration(index)
    meter.start()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    ops = workload.iterate(inp, out_dir)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    meter.stop()
    failures = workload.check(inp, ops)
    if out_dir is not None:
        shutil.rmtree(out_dir)
    record = {"index": index, "wall_s": wall, "cpu_s": cpu,
              "adjusted_wall_s": meter.adjust(wall),
              "adjusted_cpu_s": meter.adjust(cpu),
              "speed": meter.speed, "stolen": meter.stolen,
              "ops": [{"name": op.name, "error": op.error, "failures": f}
                      for op, f in zip(ops, failures)]}
    if tracer is not None:
        self_s, counts, top_level_s = tracer.iteration_totals()
        record.update(self_s=self_s, counts=counts, top_level_s=top_level_s)
    return record


def _loop(workload, seconds, traced, meter):
    """Closed loop: the next iteration starts when the previous one ends,
    and none starts that the median so far says would overrun ``seconds``.
    A traced run alternates an untraced and a traced iteration on the same
    inputs, so the tracing overhead compares like with like."""
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
    records = []
    start = time.perf_counter()
    index = 0
    while index < len(workload.inputs):
        if records:
            step = statistics.median(r["wall_s"] for r in records)
            if traced:
                step *= 2
            if time.perf_counter() - start + step > seconds:
                break
        records.append(_run_iteration(workload, index, meter))
        if traced:
            tracer.install(ENTRY_POINTS)
            try:
                rec = _run_iteration(workload, index, meter, tracer)
            finally:
                tracer.uninstall()
            rec["traced"] = True
            records.append(rec)
        index += 1
    return records, tracer, start


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--launched-ticks", required=True,
                        help="steal,busy vCPU ticks when the parent launched")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the thread variables applied")

    meter = Meter()
    meter.start(tuple(int(t) for t in args.launched_ticks.split(",")))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    setup = time.monotonic() - args.launched
    meter.stop()
    result = {"setup_s": meter.adjust(setup), "raw_setup_s": setup}
    if args.mode == "run":
        records, tracer, origin = _loop(workload, args.seconds,
                                        bool(args.trace), meter)
        result["iterations"] = records
        if tracer is not None and args.spans:
            tracer.write(args.spans, origin)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
