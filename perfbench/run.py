#!/usr/bin/env python3
"""qbm1d benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source tree::

    python3 perfbench/run.py --workload collision --seed 1 --seconds 20 --trace 0

Workloads: collision, channel, ensemble (see ``workloads.py``).  The
workload body is repeated closed loop in this process until ``--seconds``
have passed, and at least three times, so every run also checks that
identical inputs give byte-identical outputs.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it holds the
per-layer metrics.  Spans and the full result are written under
``.perfbench-work/`` in the source tree.

The package is imported from ``src/`` of the tree this file sits in; the
run fails (exit code 2, no result) when that tree has no ``src/qbm1d``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1
SETUP_SAMPLES = 3
MIN_REPEATS = 3


def pin_threads():
    """Fix the BLAS/OpenMP thread count before numpy is imported."""
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_path():
    if not (SRC / "qbm1d" / "__init__.py").is_file():
        print(f"error: no qbm1d package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def setup(workload, seed, work, tiny=False):
    """Import qbm1d, write and validate the configs, build the inputs."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.build(workload, seed, work, tiny)
    elapsed = time.perf_counter() - t0
    import qbm1d
    if Path(qbm1d.__file__).resolve().parent != SRC / "qbm1d":
        print(f"error: qbm1d imported from {qbm1d.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return wl, elapsed


def setup_in_child(workload, seed, tiny):
    """Set-up time of a fresh interpreter, as every CLI run pays it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)] + ["--tiny"] * tiny,
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_active": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "machine": platform.machine(),
    }


def _openblas_threads(np):
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


class Run:
    """One benchmark run: repetitions of the workload body and their checks."""

    def __init__(self, wl, work):
        self.wl = wl
        self.work = work
        self.reps = []          # (wall_s, traced, outcomes)
        self.tracers = []

    def repeat(self, traced):
        import layers
        from tracing import Tracer
        rep_dir = self.work / f"rep{len(self.reps)}"
        gc.collect()
        if traced:
            tracer = Tracer()
            layers.instrument(tracer)
            try:
                t0 = time.perf_counter()
                outcomes = self.wl.run_body(rep_dir, tracer)
                wall = time.perf_counter() - t0
            finally:
                tracer.restore()
            self.tracers.append((tracer, wall))
        else:
            t0 = time.perf_counter()
            outcomes = self.wl.run_body(rep_dir)
            wall = time.perf_counter() - t0
        self.reps.append((wall, traced, outcomes))

    def loop(self, seconds, alternate):
        start = time.perf_counter()
        while (len(self.reps) < MIN_REPEATS
               or time.perf_counter() - start < seconds):
            self.repeat(traced=alternate and len(self.reps) % 2 == 1)

    def check(self):
        """Check every operation; returns (attempted, failures, accuracy)."""
        import workloads
        failures = {}
        digests = {}
        for i, (_, _, outcomes) in enumerate(self.reps):
            for op in self.wl.ops:
                problems, digest = workloads.check(op, outcomes[op.name])
                first = digests.setdefault(op.name, digest)
                if digest is not None and digest != first:
                    problems.append(f"output differs from repetition 0 ({digest[:12]})")
                if problems:
                    failures[(i, op.name)] = problems
        attempted = len(self.reps) * len(self.wl.ops)
        accuracy = {}
        if not any(i == 0 for i, _ in failures):
            try:
                accuracy, problems = self.wl.accuracy(self.reps[0][2])
            except Exception as exc:
                problems = {self.wl.ops[0].name: [f"accuracy check raised {exc!r}"]}
            for name, msgs in problems.items():
                failures.setdefault((0, name), []).extend(msgs)
        return attempted, failures, accuracy


def end_to_end(run, setup_samples, peak_mib, accuracy):
    import workloads
    metrics = {
        "wall_s": (statistics.median(w for w, _, _ in run.reps), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    for name, unit in workloads.ACCURACY_UNITS.items():
        # None (JSON null) when a failed check left an owned metric unmeasured
        value = accuracy.get(name) if name in run.wl.owns else workloads.NOT_RUN
        metrics[name] = (value, unit)
    return metrics


def per_layer(run):
    import layers
    rows = [layers.layer_metrics(tr, wall) for tr, wall in run.tracers]
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if not name.startswith("trace."):
            # counts repeat exactly; median_low keeps them whole numbers
            med = statistics.median_low if unit in ("count", "B") else statistics.median
            metrics[name] = (med(r[name] for r in rows), unit)
    traced = statistics.median(w for w, t, _ in run.reps if t)
    plain = statistics.median(w for w, t, _ in run.reps if not t)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("collision", "channel", "ensemble"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test input sizes (seconds per run), not the benchmark")
    args = ap.parse_args(argv)

    pin_threads()
    import_path()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + "-tiny" * args.tiny
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        wl, first = setup(args.workload, args.seed, work / "configs", args.tiny)
        if args.setup_only:
            print(repr(first))
            return 0
        samples = [first] + [setup_in_child(args.workload, args.seed, args.tiny)
                             for _ in range(SETUP_SAMPLES - 1)]
        run = Run(wl, work)
        run.loop(args.seconds, alternate=bool(args.trace))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failures, accuracy = run.check()
        if args.trace:
            metrics = per_layer(run)
            for i, (tracer, _) in enumerate(run.tracers):
                tracer.save(WORK / f"spans-{tag}-rep{i}.npz")
        else:
            metrics = end_to_end(run, samples, peak, accuracy)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for (rep, op), problems in sorted(failures.items()):
        for p in problems:
            print(f"FAILED rep {rep} {op}: {p}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "repetitions": [round(w, 6) for w, _, _ in run.reps],
            "op_seconds": {op.name: statistics.median(o[op.name].seconds
                                                      for _, _, o in run.reps)
                           for op in wl.ops},
            "setup_samples": samples, "env": environment()}
    (WORK / f"result-{tag}.json").write_text(json.dumps({**info, **result}, indent=1))
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
