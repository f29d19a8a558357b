"""Benchmark of the ngl pipelines: end-to-end timings and per-layer self time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh worker processes with one BLAS/OpenMP thread.
Set-up (interpreter start, imports, config generation and validation, cache
fill) is repeated in ``SETUP_REPEATS`` workers and its median reported; the
last worker then runs pipeline iterations in a closed loop for ``--seconds``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics from a run that
alternates untraced and traced iterations.  The end-to-end times are in
reference seconds, corrected for steal time and core speed (speed.py); the
raw times are printed beside them.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import cpu_ticks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _worker(args, mode, work_dir, deadline, spans=None):
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--work", work_dir,
           "--launched", repr(time.monotonic()),
           "--launched-ticks", ",".join(map(str, cpu_ticks()))]
    if spans is not None:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}:\n"
                         + err[-2000:])
    return json.loads(out.strip().splitlines()[-1])


def _op_totals(iterations):
    attempted = failed = 0
    problems = []
    for it in iterations:
        for op in it["ops"]:
            attempted += 1
            if op["error"] or op["failures"]:
                failed += 1
                traced = " (traced)" if it.get("traced") else ""
                problems.append(f"iteration {it['index']}{traced} {op['name']}: "
                                + (op["error"] or "; ".join(op["failures"][:3])))
    return attempted, failed, problems


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setups, run):
    its = run["iterations"]
    attempted, failed, _ = _op_totals(its)
    return {
        "pipeline_s": _median([it["adjusted_wall_s"] for it in its]),
        "cpu_s": _median([it["adjusted_cpu_s"] for it in its]),
        "setup_s": _median([s["setup_s"] for s in setups]),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(run, names):
    traced = [it for it in run["iterations"] if it.get("traced")]
    untraced = [it for it in run["iterations"] if not it.get("traced")]
    values = {
        "trace.pipeline_s": _median([it["wall_s"] for it in traced]),
        "trace.untraced_pipeline_s": _median([it["wall_s"] for it in untraced]),
        "trace.named_share": _median([it["top_level_s"] / it["wall_s"]
                                      for it in traced]),
        "tiling.rapid_share": _median([
            it["counts"].get("tiling.rapid_squares", 0)
            / max(it["counts"].get("tiling.squares", 0), 1) for it in traced]),
    }
    values["trace.overhead_ratio"] = (values["trace.pipeline_s"]
                                      / values["trace.untraced_pipeline_s"])
    for name in names:
        layer, _, what = name.partition(".")
        if name in values:
            continue
        if what == "self_s":
            values[name] = _median([it["self_s"][layer] for it in traced])
        else:
            values[name] = _median([it["counts"].get(name, 0) for it in traced])
    return values


def run_workload(args, spec, deadline):
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    spans = None
    if args.trace:
        spans = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        setups = []
        for k in range(SETUP_REPEATS - 1):
            sub = os.path.join(work, f"setup-{k}")
            os.makedirs(sub)
            setups.append(_worker(args, "setup", sub, deadline))
            shutil.rmtree(sub)
        main_dir = os.path.join(work, "run")
        os.makedirs(main_dir)
        run = _worker(args, "run", main_dir, deadline, spans)
        setups.append(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer(run, [m["name"] for m in spec[kind]])
    else:
        values = end_to_end(setups, run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return run, setups, metrics, spans


def _report(args, run, setups, metrics, spans):
    """Human-readable lines for one workload; the JSON line comes last."""
    its = run["iterations"]
    attempted, failed, problems = _op_totals(its)
    n_untraced = sum(1 for it in its if not it.get("traced"))
    print(f"== {args.workload} (seed {args.seed}, {n_untraced} untraced "
          f"iterations in a closed loop, {len(setups)} set-ups)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  raw medians (s): wall {_median([it['wall_s'] for it in its]):.6g}, "
          f"cpu {_median([it['cpu_s'] for it in its]):.6g}, "
          f"setup {_median([s['raw_setup_s'] for s in setups]):.6g}; "
          f"median speed {_median([it['speed'] for it in its]):.4g} of the "
          f"reference, median stolen share "
          f"{_median([it['stolen'] for it in its]):.4g}")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    for line in problems[:8]:
        print(f"  failed: {line}")
    print(f"  timings are medians over iterations; no tail percentile is "
          f"reported because no percentile of {n_untraced} iterations has ten "
          f"samples beyond it")
    if spans:
        print(f"  spans written to {os.path.relpath(spans, ROOT)}")
    print(f"  environment: {json.dumps(run['environment'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not os.path.isdir(os.path.join(ROOT, "src", "ngl")):
            raise BenchError("no ngl source tree at src/ngl in this checkout")
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names} or all")
        print("environment: " + json.dumps({
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "threads": dict.fromkeys(THREAD_VARS, "1"),
            "loadavg_before": os.getloadavg()}))
        correct, attempted, failed, combined = True, 0, 0, {}
        for name in chosen:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            deadline = time.monotonic() + TIME_LIMIT_S
            run, setups, metrics, spans = run_workload(one, spec, deadline)
            _report(one, run, setups, metrics, spans)
            a, f, _ = _op_totals(run["iterations"])
            attempted += a
            failed += f
            correct &= not any(op["failures"] for it in run["iterations"]
                               for op in it["ops"])
            combined.update(metrics if len(chosen) == 1 else
                            {f"{name}/{k}": v for k, v in metrics.items()})
        print("loadavg_after: " + json.dumps(os.getloadavg()))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
