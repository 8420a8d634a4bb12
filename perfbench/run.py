"""igamotor benchmark.

    python3 perfbench/run.py --workload {optimize-demo,sweep-r2,design-r4}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports igamotor from its
``src/``.  One process, one closed-loop caller, ``workers`` = 1, one BLAS
thread.  The run sets the machine up ``n_setup`` times, then runs seeded
operations back to back until their summed time reaches ``--seconds``,
checking each output (untimed).  Operations that raise or fail their check
count in ``failed``.  ``setup_s`` and ``op_s_p50`` are medians rescaled to a
reference machine speed (speed.py).

Three JSON lines go to stdout: the run environment, a report of metrics
that are not gated (measured times, rates, failed_frac), and last the result
``{correct, attempted, failed, metrics}``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` operations alternate untraced
and traced, the metrics are the per-layer ones from the spans, and the spans
go to ``perfbench/out/trace-<workload>.jsonl``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)
import scipy  # noqa: E402

from speed import SpeedCalibration  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "thd_final": "1", "peak_rss_mb": "MB"}


def release_memory(collect: bool = True):
    """Return freed heap pages to the OS (glibc malloc_trim), after an
    optional garbage collection, so every set-up and operation starts from
    the same allocator state and peak RSS does not depend on fragmentation
    left by earlier ones."""
    if collect:
        gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def import_igamotor():
    """Import igamotor from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import igamotor
    except ImportError as exc:
        sys.exit("benchmark: cannot import igamotor from %s: %s" % (SRC, exc))
    if Path(igamotor.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit("benchmark: igamotor imported from %s, not %s" % (igamotor.__file__, SRC))
    return igamotor


def git_sha(root: Path) -> str:
    """HEAD commit of a checkout, read from .git without running git."""
    git = root / ".git"
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
    return "unknown"


def environment(workload, machine) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    solver = machine[0]
    cfg = workload.cfg
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "workers": 1,
        "workload": workload.name,
        "refinement": cfg.refinement,
        "dofs": int(solver.dm_st.n_free + solver.dm_rt.n_free),
        "n_harmonics": cfg.n_harmonics,
        "n_angles": cfg.n_angles,
    }


def run(workload, seed: int, seconds: float, trace: bool, trace_path=None):
    """One benchmark run; returns (result line, environment, report)."""
    from igamotor.errors import IgaError

    tracer = Tracer()
    if trace:
        tracer.install()
    speed = SpeedCalibration()
    rng = np.random.default_rng(seed)
    try:
        setups = []                             # (seconds, at reference speed, traced)
        for i in range(workload.n_setup):
            machine = None                      # free the previous machine first
            release_memory()
            speed.measure()
            traced = trace and i % 2 == 0
            t0 = time.perf_counter()
            with tracer.unit("setup", traced):
                machine = workload.setup(tracer)
            dt = time.perf_counter() - t0
            setups.append((dt, speed.scale(dt), traced))
        machine = workload.prepare(machine, rng)
        release_memory()

        ops, elapsed, failed, last_thd = [], 0.0, 0, None
        while elapsed < seconds or (trace and len(ops) < 2):
            inp = workload.next_input(rng)
            traced = trace and len(ops) % 2 == 1
            speed.before_operation()
            t0 = time.perf_counter()
            try:
                with tracer.unit("op", traced):
                    out = workload.operation(machine, inp)
            except IgaError as exc:
                print("operation %d raised %r" % (len(ops), exc), file=sys.stderr)
                out = None
            dt = time.perf_counter() - t0
            ops.append((dt, speed.scale(dt), traced))
            elapsed += dt
            if out is None or not workload.check(machine, inp, out):
                failed += 1
            else:
                last_thd = workload.thd(out)
            out = None
            release_memory(collect=False)
        correct = workload.finish(machine) and failed == 0
        env = environment(workload, machine)
    finally:
        tracer.uninstall()

    if trace:
        values = tracer.layer_values([(t, tr) for t, _, tr in setups],
                                     [(t, tr) for t, _, tr in ops])
        units = layer_metrics()
        if trace_path is not None:
            tracer.write(trace_path, dict(env, seed=seed, metrics=values))
    else:
        values, units = {
            "setup_s": statistics.median(ref for _, ref, _ in setups),
            "op_s_p50": statistics.median(ref for _, ref, _ in ops),
            # 0 only when every operation failed, and then correct is false
            "thd_final": last_thd if last_thd is not None else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": bool(correct), "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return result, env, report(workload, setups, ops, speed, failed)


def report(workload, setups, ops, speed, failed) -> dict:
    """What is printed but not gated: the measured (not rescaled) untraced
    times under their per-workload names, the operation rate (the inverse
    mean operation time), the calibration kernel's median time, and
    failed_frac (also in the result line as failed/attempted)."""
    plain = [t for t, _, traced in ops if not traced]
    name, scale, unit = workload.op_name
    out = {name: {"value": scale * statistics.median(plain), "unit": unit},
           workload.rate_name: {"value": len(plain) / sum(plain), "unit": "1/s"},
           "setup_measured_s": {"value": statistics.median(t for t, _, _ in setups),
                                "unit": "s"},
           "calibration_ms": {"value": 1e3 * statistics.median(speed.kernel_s), "unit": "ms"},
           "failed_frac": {"value": failed / len(ops), "unit": "1"}}
    if hasattr(workload, "fd_error"):
        out["fd_rel_error"] = {"value": workload.fd_error, "unit": "1"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_igamotor()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    trace_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / ("trace-%s.jsonl" % args.workload)
    result, env, named = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), trace_path)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"report": named}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
