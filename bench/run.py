"""lotshare benchmark: one workload per process, inputs made from a seed.

    python3 bench/run.py --workload mask_search --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a lotshare checkout; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The lines before it record the environment, every operation's time and
output hashes, and the quality figures. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mask_search", "wide_tables", "score_rank")
SETUP_REPEATS = 4  # untraced; a multiple of the CPU count on a 2-CPU host
MIN_OPS = 2

# name -> unit of the metrics BENCHMARK.json bounds (printed with --trace 0)
END_TO_END = {"run_s": "s", "setup_s": "s", "samples_per_s": "items/s",
              "peak_rss_mb": "MB", "ctr_ne": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="how long the timed operations are repeated")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "lotshare").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def run_workload(args) -> int:
    os.environ.pop("LOTSHARE_SEED", None)  # the seed comes from --seed only
    sys.path.insert(0, str(SRC))
    import lotshare
    if Path(lotshare.__file__).resolve().parent != SRC / "lotshare":
        print(f"error: imported lotshare from {lotshare.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return measure(args, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, tag: str) -> int:
    import calibrate
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, work)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None

    # The CPUs of a shared host can differ in speed for minutes at a time (a
    # busy SMT sibling), and the scheduler keeps a process on one of them.
    # Repeats therefore rotate over the CPUs, so every run samples each CPU.
    cpus = sorted(os.sched_getaffinity(0))

    def on_cpu(k):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})

    # Untraced runs time the reference work on the same CPU right before and
    # right after every timed interval, and report corrected times (see
    # calibrate.py). Traced runs report wall times.
    ref_work = None if tracer else calibrate.Reference()
    ref_s = []

    def ref_before() -> None:
        if ref_work is not None:
            ref_s.append(ref_work.run())

    def timed(wall_s: float) -> float:
        if ref_work is None:
            return wall_s
        ref_s.append(ref_work.run())
        return calibrate.corrected(wall_s, ref_s[-2], ref_s[-1])

    if ref_work is not None:
        ref_work.run()  # warm-up

    wl.prepare()
    setup_s, setup_wall_s, setup_layers = [], [], {}
    for k in range(1 if tracer else SETUP_REPEATS):
        on_cpu(k)
        state = None  # release the previous set-up before the next one
        ref_before()
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            try:
                with tracer.root("bench.setup") as lo:
                    state = wl.setup()
            finally:
                tracer.uninstall()
            setup_layers = tracing.setup_metrics(tracer.spans, lo, len(tracer.spans))
        else:
            state = wl.setup()
        setup_wall_s.append(time.perf_counter() - t0)
        setup_s.append(timed(setup_wall_s[-1]))
    print("setup_s " + " ".join(f"{s:.4f}" for s in setup_s))

    ops = []  # per operation: traced, run_s, items_per_s, ok, layer metrics
    reference, quality, errors = None, None, []
    # An operation (traced: a pair of them) starts only if it should end
    # within --seconds, so a slow machine measures fewer repeats, not longer.
    round_len = 2 if tracer else 1
    start = time.perf_counter()

    def another_op() -> bool:
        if len(ops) < MIN_OPS or len(ops) % round_len:
            return True
        per_op = (time.perf_counter() - start) / len(ops)
        return time.perf_counter() + round_len * per_op <= start + args.seconds

    while another_op():
        i = len(ops)
        # traced: an untraced and a traced operation on each CPU in turn
        traced = tracer is not None and i % 2 == 1
        on_cpu(i // 2 if tracer else i)
        out = work / f"op{i}"
        rec = {"op": i, "traced": traced, "ok": False}
        ref_before()
        try:
            if traced:
                tracer.install()
                try:
                    with tracer.root("bench.op") as lo:
                        run_s, items, items_s = wl.run(state, out)
                finally:
                    tracer.uninstall()
                rec["layers"] = tracing.layer_metrics(tracer.spans, lo, len(tracer.spans))
            else:
                run_s, items, items_s = wl.run(state, out)
            rec.update(wall_s=run_s, run_s=timed(run_s))
            rec.update(items=items, items_per_s=items / (items_s * rec["run_s"] / run_s))
            rec["outputs"] = wl.outputs(out)
            if reference is None:
                reference = rec["outputs"]
                quality = wl.check(state, out)
            elif rec["outputs"] != reference:
                raise workloads.CheckError(f"outputs differ from op 0: {rec['outputs']}")
            if (traced and isinstance(wl, workloads.TrainWorkload)
                    and rec["layers"]["training.samples"] != items):
                raise workloads.CheckError(
                    f"traced {rec['layers']['training.samples']} training samples, "
                    f"expected {items}")
            rec["ok"] = True
        except Exception as exc:  # an operation failed: record it, go on
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ops.append(rec)
        print(f"op {i} traced={int(traced)} ok={int(rec['ok'])} "
              f"run_s={rec.get('run_s', float('nan')):.4f} "
              f"wall_s={rec.get('wall_s', float('nan')):.4f} "
              f"outputs={json.dumps(rec.get('outputs'), sort_keys=True)}", flush=True)

    good = [r for r in ops if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    if not plain or quality is None:
        print("error: no operation succeeded: " + "; ".join(errors), file=sys.stderr)
        return 1
    failed = len(ops) - len(good)
    run_s = statistics.median(r["run_s"] for r in plain)
    end_to_end = {
        "run_s": run_s,
        "setup_s": statistics.median(setup_s),
        "samples_per_s": statistics.median(r["items_per_s"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ctr_ne": quality["ctr_ne"],
    }
    print("end-to-end: " + ", ".join(
        f"{k}={v:.6g} {END_TO_END[k]}" for k, v in end_to_end.items())
        + f", ctr_auc={quality['ctr_auc']:.6g}, cvr_mse={quality['cvr_mse']:.6g}"
        + f", failure_rate={failed / len(ops):.6g} ({failed}/{len(ops)})"
        + f", wall run_s={statistics.median(r['wall_s'] for r in plain):.6g} s"
        + f", wall setup_s={statistics.median(setup_wall_s):.6g} s"
        + (f", reference={statistics.median(ref_s):.6g} s" if ref_s else ""))

    if tracer:
        traced_ops = [r for r in good if r["traced"]]
        if not traced_ops:
            print("error: no traced operation succeeded: " + "; ".join(errors),
                  file=sys.stderr)
            return 1
        layers = {k: statistics.median(r["layers"][k] for r in traced_ops)
                  for k in traced_ops[0]["layers"]}
        layers.update(setup_layers)
        layers["masking.survivor_frac.ctr"] = quality["survivor_frac.ctr"]
        layers["masking.survivor_frac.cvr"] = quality["survivor_frac.cvr"]
        layers["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced_ops) / run_s - 1.0)
        tracer.write(OUT / f"spans-{tag}.tsv")
        if set(layers) != set(tracing.PER_LAYER):
            raise RuntimeError(f"per-layer metrics {sorted(set(layers) ^ set(tracing.PER_LAYER))}"
                               " are not both derived and declared")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "reference_s": ref_s, "quality": quality,
              "outputs": reference, "errors": errors,
              "ops": [{k: v for k, v in r.items() if k != "layers"} for r in ops]}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<12} {'metric':<28} {'value':>14}  unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<12} {key:<28} {m['value']:>14.6g}  {m.get('unit', '')}")
        print(f"{name:<12} {'correct':<28} {str(res['correct']):>14}  "
              f"failed {res['failed']}/{res['attempted']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lotshare" / "__init__.py").is_file():
        print(f"error: {SRC / 'lotshare'} not found; run from a lotshare checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
