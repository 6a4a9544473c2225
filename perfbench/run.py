"""Seeded end-to-end benchmark of equiflow.

    python3 perfbench/run.py --workload {unitary,hermitian,dirac} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
`src/` next to this directory, never from an installed copy.

Each workload is a single-process closed loop over a pool of seeded cases
(see cases.py).  With --trace 0 the loop runs unwrapped for S seconds and
the end-to-end metrics are reported; with --trace 1 the first quarter of the
pool runs alternately unwrapped and under the outside-in tracer (tracer.py)
for S seconds, and the per-layer metrics are reported.  Every case's
identity is checked at its pinned tolerance, and the exact result values
must repeat: between executions in the run, between traced and untraced
passes, and across runs of the same source tree and seed (state kept under
perfbench/out/state/).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; `attempted` is the number of
distinct cases run and `failed` the number of them that failed.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # fresh processes timing set-up, besides the run's own set-up
SEGMENT_S = 0.25  # case execution time between two runs of the reference kernel
REF_S = 0.003  # nominal reference-kernel time that timings are scaled to


def _load_library():
    """Put the checkout's `src/` first on the path and import the cases module."""
    if not (SRC / "equiflow" / "__init__.py").is_file():
        sys.exit(f"error: no equiflow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cases
    import equiflow

    if Path(equiflow.__file__).resolve().parent != (SRC / "equiflow").resolve():
        sys.exit(f"error: imported equiflow from {equiflow.__file__}, not from {SRC}")
    return cases


def _timed_setup(workload, seed):
    t0 = time.perf_counter()
    cases = _load_library()
    pool = cases.generate(workload, seed)
    return cases, pool, time.perf_counter() - t0


def _probe_setup(workload, seed):
    """Set-up time of a fresh process, measured by a child interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# --- result bookkeeping ----------------------------------------------------------


def _value_hash(values):
    return hashlib.sha256(repr(sorted(values.items())).encode()).hexdigest()


class Ledger:
    """Outcomes of case executions: failures, per-case result hashes, repeats.

    `attempted` and `failed` count cases, not executions: how often a case is
    executed depends on how fast the machine is, and whether it fails does
    not (a result that changes between executions is a mismatch)."""

    def __init__(self, seed):
        self.seed = seed
        self.failures = []
        self.failed_cases = set()
        self.hashes = {}
        self.mismatches = []

    @property
    def attempted(self):
        return len(self.hashes)

    @property
    def failed(self):
        return len(self.failed_cases)

    def record(self, case, outcome, phase):
        if outcome.failures and case.index not in self.failed_cases:
            self.failed_cases.add(case.index)
            for check, detail in outcome.failures:
                self.failures.append({"seed": self.seed, "case": case.index, "kind": case.kind,
                                      "phase": phase, "check": check, "detail": detail})
        h = _value_hash(outcome.values)
        if self.hashes.setdefault(case.index, h) != h:
            self.mismatches.append({"case": case.index, "kind": case.kind, "phase": phase})

    def digest(self, n):
        """Digest of the exact results of cases 0 .. n-1."""
        return hashlib.sha256("".join(self.hashes[i] for i in range(n)).encode()).hexdigest()


def _source_hash():
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for p in sorted(base.rglob("*.py")):
            if OUT not in p.parents:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def _compare_with_earlier_runs(workload, seed, hashes, totals):
    """Check per-case result hashes (and traced call totals) against earlier
    runs of the same sources and seed; store what is new.  Returns findings."""
    path = OUT / "state" / f"{workload}-seed{seed}.json"
    src = _source_hash()
    state = json.loads(path.read_text()) if path.is_file() else {}
    if state.get("source") != src:
        state = {"source": src, "cases": {}}
    findings = []
    changed = sorted(i for i, h in hashes.items() if state["cases"].get(str(i), h) != h)
    if changed:
        findings.append(f"results differ from an earlier run of the same sources: cases {changed}")
    state["cases"].update({str(i): h for i, h in hashes.items()})
    if totals is not None:
        if state.get("counts", totals) != totals:
            findings.append("per-layer counts differ from an earlier run of the same sources")
        state["counts"] = totals
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, path)
    return findings


# --- environment -----------------------------------------------------------------


def _blas_info():
    """Name and effective thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, stem, restype in (("threads", "get_num_threads", ctypes.c_int),
                                   ("config", "get_config", ctypes.c_char_p)):
            for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                         f"openblas_{stem}64_", f"openblas_{stem}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    val = fn()
                    info[key] = val.decode() if isinstance(val, bytes) else val
                    break
        out.append(info)
    return out


def _environment(seed):
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "EQUIFLOW_THREADS": os.environ.get("EQUIFLOW_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


# --- untraced run: end-to-end metrics ------------------------------------------------


def _quantile(values, p):
    """Harrell-Davis quantile estimate: a Beta-weighted mean of all order
    statistics.  Case times cluster by kind and dimension, and a plain order
    statistic jumps between clusters from one seed to the next; this one
    moves smoothly."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _reference_kernel(workload):
    """A fixed piece of work shaped like the workload's: small complex eigen-
    solves, a spectral norm and a Python loop, or for `dirac` a signed,
    damped sum over a long array.  Returns a function that runs it once and
    returns its wall time; it takes about REF_S on a 2-CPU x86 VM."""
    import numpy as np

    rng = np.random.default_rng(0)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + H.conj().T
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    v = rng.uniform(-2e4, 2e4, size=120_000)
    w = np.exp(2j * np.pi * rng.integers(0, 5, size=v.size) / 5)

    def small_matrices():
        t = time.perf_counter()
        for _ in range(40):
            np.linalg.eigh(H)
            np.linalg.eig(U)
            np.linalg.norm(U, 2)
            acc = 0
            for i in range(300):
                acc += i * i
        return time.perf_counter() - t

    def long_array():
        t = time.perf_counter()
        complex(np.sum(w * np.sign(v) * np.exp(-np.abs(v) / 2e3)))
        np.linalg.eigh(H)
        return time.perf_counter() - t

    return long_array if workload == "dirac" else small_matrices


def run_untraced(workload, seed, seconds):
    """Closed loop over the pool, pass after pass, for `seconds` and at least
    one whole pass.

    The machine's speed drifts by 20-40 % over seconds to minutes when it is
    shared with other work, and it drifts alike for the library and for any
    other code.  So every SEGMENT_S of case execution is followed by a run of
    a fixed reference kernel, and the times of the segment's executions are
    scaled by REF_S / (mean of the kernel's times before and after it): they
    are the times the cases would take on a machine on which the kernel takes
    REF_S.  A case's time is the median over its executions."""
    cases, pool, setup_main = _timed_setup(workload, seed)
    reference = _reference_kernel(workload)
    ledger = Ledger(seed)
    n = len(pool)
    walls = [[] for _ in range(n)]
    cpus = [[] for _ in range(n)]
    refs = [reference()]
    executions = 0
    raw_wall = 0.0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while executions < n or time.perf_counter() < deadline:
        segment, busy = [], 0.0
        while busy < SEGMENT_S and (executions < n
                                    or time.perf_counter() < deadline):
            i = executions % n
            c, t = time.process_time(), time.perf_counter()
            outcome = cases.execute(pool[i])
            wall = time.perf_counter() - t
            segment.append((i, wall, time.process_time() - c))
            ledger.record(pool[i], outcome, "timed")
            busy += wall
            executions += 1
        raw_wall += busy
        refs.append(reference())
        scale = REF_S / ((refs[-2] + refs[-1]) / 2)
        for i, wall, cpu in segment:
            walls[i].append(wall * scale)
            cpus[i].append(cpu * scale)
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_main] + [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]

    case_wall = [statistics.median(w) for w in walls]
    case_cpu = [statistics.median(c) for c in cpus]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cases_per_s": (n / sum(case_wall), "1/s"),
        "case_p50_ms": (_quantile(case_wall, 0.5) * 1e3, "ms"),
        "case_p90_ms": (_quantile(case_wall, 0.9) * 1e3, "ms"),
        "cpu_ms_per_case": (sum(case_cpu) / n * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"cases": n, "executions": executions, "passes": executions / n,
             "elapsed_s": elapsed, "raw_executions_per_s": executions / raw_wall,
             "reference_kernel_s": {"median": statistics.median(refs), "min": min(refs),
                                    "max": max(refs), "samples": len(refs)},
             "setup_samples_s": setups}
    return cases, ledger, metrics, notes, None


# --- traced run: per-layer metrics ----------------------------------------------------


def run_traced(workload, seed, seconds):
    """Untraced and traced passes over the pool prefix, alternating, for
    `seconds` and at least twice each.

    The first traced pass gives the per-layer metrics; every later traced
    pass must repeat its per-case call counts exactly.
    """
    cases = _load_library()
    import layers
    from tracer import Tracer

    setup_tracer = Tracer()
    setup_tracer.install(layers.targets(setup_tracer))
    try:
        pool = cases.generate(workload, seed)
    finally:
        setup_tracer.uninstall()
    prefix = pool[:cases.prefix(workload)]

    ledger = Ledger(seed)
    untraced_walls, traced_walls, per_case, first = [], [], [], None
    t0 = time.perf_counter()
    while len(traced_walls) < 2 or time.perf_counter() - t0 < seconds:
        tp = time.perf_counter()
        for case in prefix:
            ledger.record(case, cases.execute(case), "untraced")
        untraced_walls.append(time.perf_counter() - tp)

        tracer = Tracer()
        counts = {}
        tracer.install(layers.targets(tracer))
        try:
            tp = time.perf_counter()
            for case in prefix:
                traced_case = cases.with_samplers(case, lambda fn: tracer.wrap("sampler", fn))
                before = tracer.totals()
                ledger.record(case, cases.execute(traced_case), "traced")
                counts[case.index] = layers.count_delta(before, tracer.totals())
            traced_walls.append(time.perf_counter() - tp)
        finally:
            tracer.uninstall()
        per_case.append(counts)
        first = first or tracer

    table, counts = first.snapshot()
    untraced_wall = statistics.median(untraced_walls)
    metrics = layers.per_layer_metrics(table, counts, setup_tracer.snapshot()[0])
    metrics["trace_overhead_frac"] = (
        (statistics.median(traced_walls) - untraced_wall) / untraced_wall, "frac")
    OUT.mkdir(parents=True, exist_ok=True)
    first.save(OUT / f"spans-{workload}-seed{seed}.npz")
    repeat_mismatch = sorted({i for later in per_case[1:] for i in later
                              if later[i] != per_case[0][i]})
    notes = {"untraced_pass_s": untraced_walls, "traced_pass_s": traced_walls,
             "prefix": len(prefix), "spans": len(first.span_start),
             "repeat_mismatch": repeat_mismatch,
             "layer_table": {k: list(v) for k, v in sorted(table.items())}}
    return cases, ledger, metrics, notes, first.totals()


# --- main ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("unitary", "hermitian", "dirac"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.probe_setup:
        _, _, setup = _timed_setup(args.workload, args.seed)
        print(repr(setup))
        return 0

    if args.trace:
        cases, ledger, metrics, notes, totals = run_traced(args.workload, args.seed, args.seconds)
    else:
        cases, ledger, metrics, notes, totals = run_untraced(
            args.workload, args.seed, args.seconds)

    digest = ledger.digest(cases.prefix(args.workload))  # the part every run executes
    findings = _compare_with_earlier_runs(args.workload, args.seed, ledger.hashes, totals)
    if ledger.mismatches:
        findings.append(f"results changed between executions: {ledger.mismatches[:5]}")
    if notes.get("repeat_mismatch"):
        findings.append(f"per-case counts did not repeat: cases {notes['repeat_mismatch']}")

    env = _environment(args.seed)
    failed = ledger.failed
    for f in ledger.failures:
        print("FAILED " + json.dumps(f, sort_keys=True))
    for msg in findings:
        print("FINDING " + msg)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ledger.attempted} failed={failed} "
          f"failed_frac={failed / ledger.attempted:.6g} digest={digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  notes: " + json.dumps({k: v for k, v in notes.items() if k != "layer_table"}))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "digest": digest, "env": env, "notes": notes,
              "failures": ledger.failures, "findings": findings,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": not findings,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
