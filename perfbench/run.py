"""ramlab benchmark: fixed sequences of CLI calls, timed end to end.

    python3 perfbench/run.py --workload structure --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one table

A run imports ramlab from ``src/`` next to this directory and repeats the
workload's calls (see workloads.py) in-process through
``ramlab.cli.main(argv)``: closed loop, one caller, ``RAMLAB_THREADS``
unset, BLAS at its default thread count (recorded). Calls repeat, at least
twice, until another repetition would overrun ``--seconds``. A fixed
calibration block runs before the first call and after every call, and each
call's time is scaled to the reference speed ``CAL_REF_S`` by the
calibration times around it (see ``calibrate``). ``wall_ref_s`` sums, over the
workload's calls, each call's median scaled time across the repetitions;
the raw times are printed and recorded too. After timing, every artifact of every
repetition is checked against an independent computation (checks.py); a
call that exits non-zero or whose artifact fails its check is a failed
operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions (at least one of each) and reports the
per-layer metrics from the traced ones (tracer.py): self time and calls per
module, the named functions' inclusive times and work counts, and the
tracing overhead (traced minus untraced wall time). The tracer self-test
requires the layers' self times plus the harness time outside ``cli.main``
to equal the traced wall time within 5%.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
each per-call time, the error rate and the machine record. Spans and a full
result record are written under ``.bench_out/``.
"""

import argparse
import contextlib
import ctypes
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("cli", "builders", "graph_core", "walk_engine", "spectral_lab", "theory")
SETUP_SAMPLES = 7
TRACE_ACCOUNTING_TOL = 0.05

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Inclusive time of these functions, summed over their spans in a repetition.
FUNCTION_TIMES = {
    "graph_core.graph_metrics_s": ("graph_core.graph_metrics",),
    "graph_core.from_adjacency_s": ("graph_core.from_adjacency",),
    "builders.build_random_regular_s": ("builders.build_random_regular",),
    "builders.build_random_lift_s": ("builders.build_random_lift",),
    "walk_engine.empirical_cutoff_profile_s": ("walk_engine.empirical_cutoff_profile",),
    "walk_engine.mixing_curve_s": ("walk_engine.mixing_curve",),
    "walk_engine.reduction_s": ("walk_engine.tv_distance", "walk_engine.distance_to_stationarity"),
    "walk_engine.tree_radial_s": ("walk_engine.tree_radial",),
    "cli.emit_csv_s": ("cli.emit_csv",),
    "spectral_lab.build_decomposition_s": ("spectral_lab.build_decomposition",),
    "spectral_lab.verify_decomposition_s": ("spectral_lab.verify_decomposition",),
    "spectral_lab.adjacency_spectrum_s": ("spectral_lab.adjacency_spectrum",),
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{name: "s" for name in FUNCTION_TIMES},
    "graph_core.bfs_arcs_per_s": "1/s",
    "walk_engine.step.calls": "count",
    "walk_engine.state_updates": "count",
    "walk_engine.updates_per_s": "1/s",
    "cli.bytes_written": "bytes",
    "spectral_lab.residual_max": "1",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counted at call time: arcs scanned by one all-pairs BFS sweep (n^2 d)
# and states updated by one walk step.
WORK_HOOKS = {
    "graph_core.graph_metrics":
        lambda a, k: _arg(a, k, 0, "graph").n ** 2 * _arg(a, k, 0, "graph").d,
    "walk_engine.step": lambda a, k: _arg(a, k, 3, "dist").values.size,
}


@dataclass
class CallResult:
    position: int  # index of the call in the workload
    call: object
    out: Path
    seconds: float
    cal: float  # mean time of the calibration blocks just before and after the call
    rc: object
    log: str
    problem: str | None = None


@dataclass
class Repetition:
    wall: float
    results: list
    trace: dict | None = None
    bytes_written: int = 0


# --------------------------------------------------------------------------
# Machine speed
# --------------------------------------------------------------------------

# The host this runs on is shared: its speed for the same work moves by a
# third from one minute to the next as other tenants load it, and a whole
# 30 s run can fall in a slow or a fast stretch. Timing a fixed block of
# reference work right before and after every call tracks that speed, and
# the ratio call time / calibration time stays put while both raw times move
# (on a 2-vCPU Xeon VM: raw 4.4 s to 5.9 s over two minutes, ratio within
# 3%). The block mixes the kinds of work the workloads do: an interpreted
# Python loop, a gather over 8 MB arrays, many small array operations and a
# dense BLAS product. It uses only numpy, never ramlab, so a change to the
# program moves it only through state a call leaves behind, such as OpenBLAS
# worker threads still spinning after dense work.

# Reference time of one calibration block, in seconds: about its fastest
# time on the 2-vCPU Xeon VM the bounds were set on, so that figures at the
# reference speed read close to that host's raw times at its quicker moments.
CAL_REF_S = 0.07


@functools.cache
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(12345)
    big, small = rng.random(1 << 20), rng.random(4096)
    return (big, rng.integers(0, big.size, size=big.size),
            small, rng.integers(0, small.size, size=small.size), rng.random((256, 256)))


def calibrate() -> float:
    """Seconds one calibration block takes now."""
    big, big_idx, small, small_idx, mat = _calibration_inputs()
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i
    for _ in range(2):
        big[big_idx].sum()
    for _ in range(2000):
        small[small_idx].sum()
    for _ in range(40):
        mat @ mat
    return time.perf_counter() - t0


def scaled(seconds: float, cal: float) -> float:
    """``seconds`` measured while a calibration block took ``cal`` seconds,
    as seconds at the reference speed."""
    return seconds * CAL_REF_S / cal


# --------------------------------------------------------------------------
# Set-up and machine record
# --------------------------------------------------------------------------


def measure_setup() -> list:
    """(seconds, calibration seconds) to import ramlab.cli (with numpy and
    scipy) in fresh processes, each between two calibration blocks."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ramlab.cli; print(time.perf_counter() - t)")
    samples = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        after = calibrate()
        samples.append((float(proc.stdout.strip().splitlines()[-1]), (before + after) / 2))
        before = after
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    from ramlab import backend_name

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_why": WORKLOADS[workload].why,
        "seed": seed,
        "seed_rule": "every random graph takes --seed equal to the workload seed",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "backend": backend_name(),
        "ramlab_threads": os.environ.get("RAMLAB_THREADS"),
        "commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# Running calls
# --------------------------------------------------------------------------


def invoke(argv: list):
    """One in-process CLI call; returns (exit code or None, captured output)."""
    from ramlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a harness crash
            rc = None
            buf.write(traceback.format_exc())
    return rc, buf.getvalue()


def run_repetition(calls: list, run_dir: Path, index: int, deadline: float | None = None,
                   typical: dict | None = None) -> Repetition:
    """Make the calls in order, each between two calibration blocks. With a
    deadline, skip each call whose typical time would overrun it, which
    leaves a partial repetition."""
    results = []
    start = time.perf_counter()
    before = calibrate()
    for i, call in enumerate(calls):
        if deadline is not None and time.perf_counter() + typical[i] > deadline:
            continue
        out = run_dir / f"{index}-{i}-{call.argv[0]}"
        t0 = time.perf_counter()
        rc, log = invoke([*call.argv, "--out-dir", str(out)])
        seconds = time.perf_counter() - t0
        after = calibrate()
        results.append(CallResult(i, call, out, seconds, (before + after) / 2, rc, log))
        before = after
    return Repetition(time.perf_counter() - start, results)


def measure(calls: list, seconds: float, run_dir: Path, tracer: Tracer | None = None) -> list:
    """Repeat the calls, at least twice, until another repetition would
    overrun ``seconds``. With a tracer, repetitions alternate untraced and
    traced; without one, a last partial repetition makes the calls that
    still fit."""
    reps = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        try:
            rep = run_repetition(calls, run_dir, len(reps))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rep.trace = tracer.summary(mark)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= 2 and elapsed + typical > seconds:
            break
    if tracer is None:
        rest = run_repetition(calls, run_dir, len(reps), deadline=start + seconds,
                              typical=per_call_seconds(reps))
        if rest.results:
            reps.append(rest)
    return reps


def _artifact_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _verdict(call, out: Path) -> str | None:
    try:
        call.check(out)
    except Exception as exc:  # any failure to confirm the artifact fails the call
        return f"{type(exc).__name__}: {exc}"
    return None


def check_all(reps: list) -> None:
    """Check every artifact of every repetition and record each problem.
    Byte-identical artifacts of the same call share one verdict."""
    verdicts = {}
    for rep in reps:
        for r in rep.results:
            if r.rc != 0:
                r.problem = f"exit code {r.rc}: {r.log.strip()[-400:]}"
                continue
            try:
                key = (id(r.call), _artifact_digest(r.out))
            except OSError as exc:
                r.problem = f"{type(exc).__name__}: {exc}"
                continue
            if key not in verdicts:
                verdicts[key] = _verdict(r.call, r.out)
            r.problem = verdicts[key]


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _call_seconds(reps: list, scale: bool = False) -> dict:
    """Each call's time, raw or scaled to the reference speed, in every
    repetition that made it, keyed by the call's position in the workload."""
    times = {}
    for rep in reps:
        for r in rep.results:
            times.setdefault(r.position, []).append(scaled(r.seconds, r.cal) if scale
                                                    else r.seconds)
    return times


def _by_label(reps: list, per_position: dict) -> dict:
    """Sum per-position values into the calls' labels (``metrics_s`` ...)."""
    labels = {r.position: r.call.label for r in reps[0].results}
    out = {}
    for i, value in per_position.items():
        out[labels[i]] = out.get(labels[i], 0.0) + value
    return out


def per_call_seconds(reps: list, scale: bool = False) -> dict:
    """Median time of each call position, raw or at the reference speed."""
    return {i: _median(times) for i, times in _call_seconds(reps, scale).items()}


def workload_seconds(reps: list) -> float:
    """Sum over the calls of each call's median time at the reference speed."""
    return sum(per_call_seconds(reps, scale=True).values())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _residual_max(rep: Repetition) -> float:
    worst = 0.0
    for r in rep.results:
        if r.call.argv[0] == "decompose" and r.problem is None:
            data = json.loads((r.out / "decomposition.json").read_text())
            worst = max(worst, *(data[k] for k in checks.decomposition_tolerances()))
    return worst


def layer_metrics(rep: Repetition) -> dict:
    s = rep.trace
    fn_s, fn_calls, work = s["fn_s"], s["fn_calls"], s["work"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s["layer_self_s"][layer]
        m[f"{layer}.calls"] = s["layer_calls"][layer]
    for metric, names in FUNCTION_TIMES.items():
        m[metric] = sum(fn_s.get(n, 0.0) for n in names)
    gm = fn_s.get("graph_core.graph_metrics", 0.0)
    m["graph_core.bfs_arcs_per_s"] = work.get("graph_core.graph_metrics", 0) / gm if gm else 0.0
    step_s = fn_s.get("walk_engine.step", 0.0)
    updates = work.get("walk_engine.step", 0)
    m["walk_engine.step.calls"] = fn_calls.get("walk_engine.step", 0)
    m["walk_engine.state_updates"] = updates
    m["walk_engine.updates_per_s"] = updates / step_s if step_s else 0.0
    m["cli.bytes_written"] = rep.bytes_written
    m["spectral_lab.residual_max"] = _residual_max(rep)
    m["trace.spans"] = s["spans"]
    return m


def trace_accounting(rep: Repetition) -> float:
    """(layers' self time + harness time outside cli.main) / traced wall."""
    s = rep.trace
    outside = rep.wall - s["fn_s"].get("cli.main", 0.0)
    return (sum(s["layer_self_s"].values()) + outside) / rep.wall


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def new_tracer() -> Tracer:
    return Tracer([importlib.import_module(f"ramlab.{layer}") for layer in LAYERS],
                  WORK_HOOKS)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = WORKLOADS[name].calls(seed)
    setup = measure_setup()
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    run_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    tracer = new_tracer() if trace else None
    try:
        reps = measure(calls, seconds, run_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for rep in reps:
            rep.bytes_written = sum(_dir_bytes(r.out) for r in rep.results if r.out.is_dir())
        check_all(reps)
        traced = [r for r in reps if r.trace is not None]
        untraced = [r for r in reps if r.trace is None]
        layer_values = [layer_metrics(r) for r in traced]
        accounting = [trace_accounting(r) for r in traced]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r.results) for r in reps)
    problems = [(i, r.call.label, r.problem) for i, rep in enumerate(reps)
                for r in rep.results if r.problem]
    untraced_wall = workload_seconds(untraced)
    if trace:
        # median_low keeps counts whole: each value is one traced repetition's
        values = {k: statistics.median_low(m[k] for m in layer_values) for k in layer_values[0]}
        values["trace.overhead_s"] = workload_seconds(traced) - untraced_wall
        metrics = {k: values[k] for k in PER_LAYER}
        units = PER_LAYER
        tracer_ok = all(abs(a - 1.0) <= TRACE_ACCOUNTING_TOL for a in accounting)
        tracer.dump(OUT / f"{tag}-spans.json")
    else:
        metrics = {"wall_ref_s": untraced_wall,
                   "setup_s": statistics.median(scaled(t, cal) for t, cal in setup),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        tracer_ok = True

    record = {
        "env": environment(name, seed),
        "seconds": seconds,
        "trace": trace,
        "cal_ref_s": CAL_REF_S,
        "setup_samples": [{"seconds": t, "cal_s": cal} for t, cal in setup],
        "repetitions": [{"wall_s": r.wall, "traced": r.trace is not None,
                         "calls": [{"position": c.position, "label": c.call.label,
                                    "argv": c.call.argv,
                                    "seconds": c.seconds, "cal_s": c.cal, "rc": c.rc,
                                    "problem": c.problem}
                                   for c in r.results]} for r in reps],
        "per_call_median_s": _by_label(untraced, per_call_seconds(untraced)),
        "per_call_median_ref_s": _by_label(untraced, per_call_seconds(untraced, scale=True)),
        "untraced_wall_ref_s": untraced_wall,
        "trace_accounting": accounting,
        "error_rate": len(problems) / attempted,
        "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {name}: seed {seed}, {len(untraced)} untraced and {len(traced)} "
          f"traced repetitions of {len(calls)} calls")
    for label, value in record["per_call_median_ref_s"].items():
        print(f"  {label:<14} {value:10.4f} s at reference speed, "
              f"{record['per_call_median_s'][label]:10.4f} s raw (untraced medians)")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:14.6g} {units[key]}")
    print(f"  error_rate {record['error_rate']:.4g} ratio ({len(problems)}/{attempted})")
    for rep_index, label, problem in problems:
        print(f"  FAILED repetition {rep_index} {label}: {problem}")
    if trace:
        print(f"  tracer accounting (self + harness) / wall: "
              f"{', '.join(f'{a:.4f}' for a in accounting)}"
              f"{'' if tracer_ok else '  OUTSIDE 5%'}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    return {"correct": not problems and tracer_ok, "attempted": attempted,
            "failed": len(problems),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, then one table of the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<10} {'metric':<40} {'value':>14} unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<10} {key:<40} {m['value']:14.6g} {m['unit']}")
        print(f"{name:<10} {'error_rate':<40} {res['failed'] / res['attempted']:14.6g} ratio")
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ramlab" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no ramlab sources at {SRC} or no tests/oracles.py; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("RAMLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
