"""Benchmark of the admshell verify pipeline.

    python3 perfbench/run.py --workload ladder-big --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # all four in turn
    python3 perfbench/run.py --record-goldens            # never overwrites

Run it from the root of a source checkout: the library is imported from
``src/``.  Workloads are closed loop in one process, one job at a time;
``--workload all`` runs each workload in a child process of its own, one after
the other, so that each reports its own peak RSS.  A run sets the workload up
several times (``setup_s`` is the median), each time importing the library
afresh, then runs passes over the workload's jobs until another pass would
end after ``--seconds`` (at least one pass).  Outputs are checked against the
goldens in ``perfbench/goldens`` after each pass, outside the timed region.

Times are scaled to a fixed reference speed of the host (see speed.py),
because the speed of a shared host drifts more than the bounds allow; the
raw wall-clock figures are printed beside them.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the first pass runs untraced and the others run with span
recorders wrapped around the library's entry points (see spans.py); the
result carries the per-layer metrics, the spans are written to
``perfbench/out/`` and, for ladder-big and parahoric-full, the ROADMAP stage
table is printed.  The last line of stdout is always the JSON result.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler, children_cpu_s

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# A run sets up at least SETUPS times and for at least SETUP_MIN_S seconds.
SETUPS = 5
SETUP_MIN_S = 0.5
WORKLOAD_NAMES = ("ladder-big", "parahoric-full", "matrix-sweep", "qbg-paths")
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "job_p90_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def env_stamp():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}


def run_pass(wl, state, speed, failures):
    """One timed pass over the jobs, then the untimed golden checks.

    Returns each job's latency scaled to the reference speed, its raw
    latency, and the outputs.
    """
    outputs, times = [], []
    gc.collect()
    for job in wl.jobs:
        wl.before_job(state)
        children = children_cpu_s()
        t0 = perf_counter()
        try:
            out = wl.run(state, job)
        except Exception as exc:  # a failing job is counted, not fatal
            out = exc
        times.append((t0, perf_counter(), children_cpu_s() > children))
        outputs.append(out)
    for job, out in zip(wl.jobs, outputs):
        err = (f"raised {out!r}" if isinstance(out, Exception)
               else wl.check(job, out))
        if err:
            failures.append((job, err))
    return ([speed.scaled(*t) for t in times],
            [t1 - t0 for t0, t1, _ in times], outputs)


def set_up(name, seed):
    """Import the library and the workload module afresh, as a new process
    would, then build the workload's inputs and prepare its state."""
    for mod in [m for m in sys.modules
                if m in ("admshell", "workloads") or m.startswith("admshell.")]:
        del sys.modules[mod]
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](seed)
    return wl, wl.prepare()


def measure(name, seed, seconds, trace):
    with SpeedSampler() as speed:
        return _measure(name, seed, seconds, trace, speed)


def _measure(name, seed, seconds, trace, speed):
    setups, raw_setups, states = [], [], []
    while len(setups) < SETUPS or sum(raw_setups) < SETUP_MIN_S:
        t0 = perf_counter()
        wl, state = set_up(name, seed)
        t1 = perf_counter()
        setups.append(speed.scaled(t0, t1))
        raw_setups.append(t1 - t0)
        if len(states) < SETUPS:
            states.append(state)
    # imported after the last set-up, so that it wraps the modules in use
    from spans import Tracer

    tracer = Tracer() if trace else None
    failures, walls, raw_walls, latencies = [], [], [], []
    traced_walls, out_bytes = [], 0
    start = perf_counter()
    while True:
        traced = bool(trace and walls)
        if traced:
            tracer.install()
        try:
            state = wl.prepare() if traced or not states else states.pop()
            scaled, raw, outputs = run_pass(wl, state, speed, failures)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(sum(scaled))
            out_bytes += sum(len(out[1].encode()) for out in outputs
                             if wl.kind == "cli" and isinstance(out, tuple))
        else:
            walls.append(sum(scaled))
            raw_walls.append(sum(raw))
            latencies += scaled
        done = len(walls) + len(traced_walls)
        if perf_counter() - start + sum(raw) > seconds \
                and (done > 1 or not trace):
            break

    attempted = len(wl.jobs) * (len(walls) + len(traced_walls))
    result = {"name": name, "seed": seed, "jobs": len(wl.jobs),
              "passes": len(walls), "attempted": attempted,
              "failures": failures, "setups": len(setups),
              "latencies": latencies, "raw_wall_s": statistics.median(raw_walls),
              "raw_setup_s": statistics.median(raw_setups)}
    if not trace:
        ps = statistics.quantiles(latencies, n=10, method="inclusive")
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": ps[8],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        n = len(traced_walls)
        metrics = tracer.per_layer(n, out_bytes)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        result.update(metrics=metrics, traced_passes=n,
                      traced_wall_s=statistics.median(traced_walls),
                      tracer=tracer)
    return result


def report(res, env):
    name, m = res["name"], res["metrics"]
    fails = len(res["failures"])
    print(f"== {name} seed {res['seed']}: {res['jobs']} jobs per pass, "
          f"{res['passes']} untraced passes, {res['attempted']} jobs "
          f"attempted, {fails} failed")
    for job, err in res["failures"][:10]:
        print(f"   FAIL {job}: {err}")
    if "tracer" not in res:
        n = len(res["latencies"])
        notes = {"setup_s": f"median of {res['setups']} set-ups from "
                            f"import, raw {res['raw_setup_s']:.6f} s",
                 "wall_s": f"median of {res['passes']} passes, "
                           f"raw {res['raw_wall_s']:.4f} s",
                 "job_p50_s": f"n={n}",
                 "job_p90_s": f"n={n}, {n - int(0.9 * n)} beyond",
                 "peak_rss_mb": "ru_maxrss of the run process"}
        for k, unit in END_TO_END.items():
            print(f"   {k:<12} {m[k]:>12.6f} {unit:<3} {notes[k]}")
    else:
        tr = res["tracer"]
        wall = res["traced_wall_s"]
        print(f"   traced wall_s {wall:.4f} s over {res['traced_passes']} "
              f"passes; tracing overhead {m['trace.overhead_s']:+.4f} s")
        selfs = sorted((k for k in m if k.endswith(".self_s")),
                       key=lambda k: -m[k])
        total = sum(m[k] for k in selfs)
        print(f"   self time per layer, share of all {total:.4f} s traced:")
        for k in selfs:
            print(f"     {k:<22} {m[k]:>10.4f} s {100 * m[k] / total:6.1f}%")
        print("   largest entry points: " + ", ".join(
            f"{n} {s / res['traced_passes']:.3f} s"
            for s, n in tr.largest_entry_points()))
        for k in sorted(m):
            if not k.endswith(".self_s"):
                print(f"     {k:<30} {m[k]:.6g} {layer_unit(k)}")
        if name in ("ladder-big", "parahoric-full"):
            print_stage_table(tr.stage_rows())
    print(f"   fail_ratio   {fails / res['attempted']:.4f} "
          f"({fails}/{res['attempted']})")
    print("env: " + json.dumps(env, sort_keys=True))


def print_stage_table(rows):
    """The ROADMAP baseline columns, seconds per stage, one traced job each."""
    print("   | workload | elements | intervals | adm | order | dual-EL "
          "| N-CM | sigma |")
    seen = set()
    for row in rows:
        argv = row["argv"]
        label = " ".join(argv[2:argv.index("--out")])
        if label in seen:
            continue
        seen.add(label)
        elements = str(row.get("elements", "-"))
        if row.get("full_elements", row.get("elements")) != row.get("elements"):
            elements += f" ({row['full_elements']} unquotiented)"

        def sec(col):
            v = row.get(col)
            return "-" if v is None else f"{v:.2f}"
        print(f"   | {label} | {elements} | "
              f"{row.get('intervals_checked', '-')} | {sec('adm')} | "
              f"{sec('order')} | {sec('dual_el')} | {sec('ncm')} | "
              f"{sec('sigma')} |")


def result_line(res):
    metrics = {k: {"value": v, "unit": END_TO_END.get(k) or layer_unit(k)}
               for k, v in res["metrics"].items()}
    failed = len(res["failures"])
    return json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                       "failed": failed, "metrics": metrics})


def run_all(args):
    """Each workload in a child process of its own, one after the other;
    the result line merges theirs, with metrics named ``<workload>.<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name}: exit code {proc.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            (f"{name}.{k}", v) for k, v in res["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true",
                   help="record goldens from the code under test; refuses "
                        "to overwrite existing ones")
    args = p.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        p.error("--workload is required")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import admshell
    except ImportError as exc:
        print(f"error: cannot import admshell from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(admshell.__file__).resolve().is_relative_to(src):
        print(f"error: admshell was imported from {admshell.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    if args.record_goldens:
        from workloads import record_goldens
        try:
            record_goldens()
        except FileExistsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.workload == "all":
        return run_all(args)
    env = env_stamp()
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, KeyError, RuntimeError) as exc:
        print(f"error: {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    report(res, env)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        res["tracer"].dump(path, env)
        print(f"   spans written to {path.relative_to(ROOT)}")
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
