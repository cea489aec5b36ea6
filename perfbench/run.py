"""driftfv benchmark: time to solution of the PN-junction presets.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload reproduce32 --seed 1 --seconds 55 --trace 0

The library is imported from ``src/`` of the same checkout and driven only
through its public calls.  One *pass* runs a workload's preset runs once,
set-up included; passes repeat until the next one would end after
``--seconds``.

The shared host's speed drifts by up to 1.7x, in spells of seconds to many
minutes, and it slows the interpreter and sparse LU alike.  So a fixed
kernel that uses no driftfv code (``HostSpeed``) is timed before and after
every preset run, and each time measured in that run is scaled by
``KERNEL_REF_S`` over the kernel's mean time around it: the gated timings
read as seconds on the host in its fast state.  This takes the host's drift
out of the figures and leaves the program's own speed in.  The unscaled
figures (``raw.*``) and the kernel time are printed and kept in the result
file.

``wall_s`` is the median pass, ``setup_s`` the median of at least five
set-ups (everything before the first step), ``step_ms.p50`` the median over
all steps, ``steps_per_s`` the step count over the summed step times, and
``peak_rss_mb`` the peak after the first pass.  ``--trace 1``
alternates untraced and traced passes and reports per-layer figures from
the traced ones instead (see ``tracing.py``).

Every preset run is checked: it fails if it raises, if its entropy chain is
violated, or if its final diagnostics differ from ``reference.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.  Lines before it also give ``failed_share`` and
the step-time tail percentile, which can be zero or missing and so are not
gated metrics.  Result and span files, each carrying the environment, go to
``.bench_out/``.  ``layers.json`` says which end-to-end metric each layer
metric should move; ``baseline.json`` holds the first measured figures.
"""
from __future__ import annotations

import os

# Single-threaded BLAS and OpenMP, fixed before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DT = 1e-2
FP_TOL = 1e-10
# A converged step is accurate to about fp_tol; errors of that size carried
# over a few dozen steps stay far below this.
REF_TOL = 100.0 * FP_TOL
REF_FIELDS = ("entropy", "l2_n", "l2_p", "min_n", "min_p")
MIN_SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
UNACCOUNTED_LIMIT = 0.10
# Time of the HostSpeed kernel on a 2-vCPU 2.1 GHz Xeon VM in its fast state;
# gated timings are scaled to this host speed.
KERNEL_REF_S = 5e-3

PRESETS = tuple((case, doping)
                for case in ("linear_r0", "linear_srh", "linear_auger",
                             "nonlinear_nondegenerate", "nonlinear_degenerate")
                for doping in ("zero", "pn"))


@dataclass(frozen=True)
class Workload:
    presets: tuple
    nx: int
    steps: int


WORKLOADS = {
    # ``driftfv reproduce`` on short horizons: many small factorizations next
    # to assembly, scipy call overhead, mesh builds and diagnostics.
    "reproduce32": Workload(PRESETS, nx=32, steps=10),
    # Large factors: LU fill and pure-Python mesh construction dominate.
    # A pass takes 9-13 s, too long for the kernel timed around it to follow
    # the host's speed, so BENCHMARK.json gates fine64 in its place.
    "fine128": Workload((("nonlinear_nondegenerate", "pn"),), nx=128, steps=5),
    # The same at 64x64: LU still takes four fifths of the stepping and the
    # mesh most of the set-up, and a pass takes under 2 s.
    "fine64": Workload((("nonlinear_nondegenerate", "pn"),), nx=64, steps=5),
    # Picard iteration count dominates; step 40 alone takes 955 iterations.
    # One pass takes 20-30 s, so a run holds a single pass and its timings
    # are too unsteady to gate on; BENCHMARK.json leaves it out.
    "degenerate32": Workload((("nonlinear_degenerate", "zero"),), nx=32, steps=40),
}
# Mesh size and step count of the smoke test's runs; reference.json holds
# their final diagnostics as well.
SMOKE_NX, SMOKE_STEPS = 8, 2


def ref_key(case, doping, nx, steps) -> str:
    return f"{case}_{doping}@{nx}x{nx}/{steps}"


@dataclass
class RunTiming:
    """Times of one preset run, and the host-speed kernel's time around it."""
    wall: float
    setup: float
    steps: list
    kernel: float = 0.0

    def scaled(self, seconds: float) -> float:
        """``seconds`` at the host speed where the kernel takes KERNEL_REF_S."""
        return seconds * KERNEL_REF_S / self.kernel


@dataclass
class PassResult:
    runs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    cells: int = 0
    newton_iters: int = 0
    picard_iters: list = field(default_factory=list)
    csv_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


class Bench:
    """Runs the preset runs of one workload and keeps what they measured."""

    def __init__(self, reference: dict, csv_dir: Path):
        import driftfv
        self.dv = driftfv
        self.reference = reference
        self.csv_dir = csv_dir
        self.tracer = None
        self.host = HostSpeed()

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is not None:
            fn = self.tracer.wrap(name, fn)
        return fn(*args, **kwargs)

    def setup(self, case, doping, nx, steps):
        """Mesh, problem and equilibrium; returns the objects and the run config."""
        dv = self.dv
        preset = dv.pn_junction_preset(case, doping)
        mesh = self._call("mesh.build", dv.build_cartesian, nx, nx,
                          dirichlet_predicate=preset.dirichlet_predicate)
        problem = self._call("problem.build", preset.build, mesh)
        eq = self._call("equilibrium.solve", dv.solve_equilibrium, problem)
        config = dv.StepperConfig(
            dt=DT, t_end=steps * DT, fp_tol=FP_TOL,
            fp_max_iter=2000 if problem.experimental else 200)
        return preset, mesh, problem, eq, config

    def preset_run(self, case, doping, nx, steps, out: PassResult, check=True):
        """One preset run as ``driftfv reproduce`` makes it, checked.

        Set-up lasts until the first diagnostics record, so it includes the
        stepper that ``run`` builds and the initial state.
        """
        dv = self.dv
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            preset, mesh, problem, eq, config = self.setup(case, doping, nx, steps)
            stamps = []
            _, records = self._call(
                "transient.run", dv.run, problem, config, eq,
                sink=lambda rec: stamps.append(time.perf_counter()))
            violations = self._call("diagnostics.check", self._check, records)
            path = self.csv_dir / f"{preset.name}.csv"
            self._call("diagnostics.csv", dv.write_csv, records, path)
            t_end = time.perf_counter()
        except Exception as exc:  # a failed run is counted, never dropped
            out.failures.append(f"{case}_{doping}: {type(exc).__name__}: {exc}")
            return
        out.runs.append(RunTiming(t_end - t0, stamps[0] - t0,
                                  [b - a for a, b in zip(stamps, stamps[1:])]))
        out.cells += mesh.n_cells
        out.newton_iters += eq.iterations
        out.picard_iters += [rec.fp_iters for rec in records[1:]]
        out.csv_bytes += path.stat().st_size
        if check:
            problem_found = self._compare(case, doping, nx, steps, records,
                                          violations)
            if problem_found:
                out.failures.append(f"{case}_{doping}: {problem_found}")

    def _check(self, records):
        violations = self.dv.check_entropy_chain(records, FP_TOL)
        try:
            self.dv.fit_decay_rate(records, floor=1e-10 * records[0].entropy)
        except ValueError:
            pass  # too few levels above the floor, as in ``driftfv reproduce``
        return violations

    def _compare(self, case, doping, nx, steps, records, violations):
        if len(records) != steps + 1:
            return f"{len(records) - 1} steps run, {steps} asked"
        if violations:
            return f"entropy chain violated at steps {violations[:5]}"
        key = ref_key(case, doping, nx, steps)
        ref = self.reference.get(key)
        if ref is None:
            return f"no reference diagnostics for {key}"
        final = records[-1]
        for name in REF_FIELDS:
            got, want = getattr(final, name), ref[name]
            if not abs(got - want) <= REF_TOL * (1.0 + abs(want)):
                return f"final {name} {got!r} differs from reference {want!r}"
        return None

    def run_pass(self, order, nx, steps) -> PassResult:
        out = PassResult()
        gc.collect()  # start every pass from the same heap, outside the timing
        before = self.host.kernel_time()
        for case, doping in order:
            done = len(out.runs)
            self._call("preset", self.preset_run, case, doping, nx, steps, out)
            after = self.host.kernel_time()
            if len(out.runs) > done:
                out.runs[-1].kernel = 0.5 * (before + after)
            before = after
        return out

    def setup_sample(self, order, nx) -> list:
        """Set-up alone: the preset runs of a pass stopped before their first step."""
        gc.collect()
        runs = []
        before = self.host.kernel_time()
        for case, doping in order:
            t0 = time.perf_counter()
            _, _, problem, eq, config = self.setup(case, doping, nx, 0)
            self.dv.run(problem, config, eq)
            seconds = time.perf_counter() - t0
            after = self.host.kernel_time()
            runs.append(RunTiming(seconds, seconds, [], 0.5 * (before + after)))
            before = after
        return runs


class HostSpeed:
    """Times a fixed kernel that uses no driftfv code.

    The kernel mixes what the workloads spend their time on: interpreted
    Python and a sparse LU factorization and solve (a 2-D Laplacian on a
    40x40 grid).  Its time is the fastest of three repetitions, so a single
    interruption does not count.  ``splu`` is bound here, before tracing
    wraps the module attribute, so traced passes do not count the kernel.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        n = 40
        line = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(n * n)
        self.splu = spla.splu

    def kernel_time(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(30_000):
                acc += i * i % 7
            self.splu(self.matrix).solve(self.rhs)
            best = min(best, time.perf_counter() - t0)
        return best


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0:
            ordered = sorted(samples)
            rank = min(n - 1, int(q / 100.0 * n))
            return q, ordered[rank]
    return None


def end_to_end(passes, setups, peak_rss_kb) -> dict:
    """The gated metrics, scaled to the reference host speed, and the raw ones."""
    runs = [r for p in passes for r in p.runs]
    steps = [r.scaled(t) for r in runs for t in r.steps]
    raw_steps = [t for r in runs for t in r.steps]
    if not steps:
        raise RuntimeError("no step completed; nothing to measure")
    return {
        "wall_s": statistics.median(sum(r.scaled(r.wall) for r in p.runs) for p in passes),
        "setup_s": statistics.median(sum(r.scaled(r.setup) for r in s) for s in setups),
        "steps_per_s": len(steps) / sum(steps),
        "step_ms.p50": 1e3 * statistics.median(steps),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "raw.wall_s": statistics.median(p.wall for p in passes),
        "raw.setup_s": statistics.median(sum(r.setup for r in s) for s in setups),
        "raw.steps_per_s": len(raw_steps) / sum(raw_steps),
        "raw.step_ms.p50": 1e3 * statistics.median(raw_steps),
        "host.kernel_ms": 1e3 * statistics.median(r.kernel for r in runs),
    }


def per_layer(tracer, traced, untraced) -> dict:
    secs, calls = tracer.totals()
    own = tracer.self_times()
    n = len(traced)
    first = traced[0]
    picard = sum(first.picard_iters)
    # Time in no layer span: the benchmark's own code around the calls.
    layers = sum(t for name, t in own.items() if name != "preset")
    unaccounted = 1.0 - layers / sum(p.wall for p in traced)
    checks = calls["transient.residual"]
    factorizations = calls["sparse.factor"]
    return {
        "mesh.build_s": secs["mesh.build"] / n,
        "mesh.cells": first.cells,
        "problem.build_s": secs["problem.build"] / n,
        "equilibrium.solve_s": secs["equilibrium.solve"] / n,
        "equilibrium.newton_iters": first.newton_iters,
        "transient.stepper_init_s": secs["transient.stepper_init"] / n,
        "transient.advance_s": secs["transient.advance"] / n,
        "transient.picard_iters": picard,
        "transient.picard_iters_max": max(first.picard_iters),
        "transient.picard_per_step": picard / len(first.picard_iters),
        "transient.density_step_s": secs["transient.density_step"] / n,
        "transient.density_step.self_s": own["transient.density_step"] / n,
        "transient.poisson_s": secs["transient.poisson"] / n,
        "transient.poisson_solves": calls["transient.poisson"] / n,
        "transient.residual_s": secs["transient.residual"] / n,
        "transient.residual_checks": checks / n,
        "transient.residual_accept_ratio":
            tracer.counts["transient.residual_accepts"] / checks if checks else 0.0,
        "flux.coeff_s": secs["flux.coeff"] / n,
        "flux.coeff_calls": calls["flux.coeff"] / n,
        "constitutive.dr_mean_s": secs["constitutive.dr_mean"] / n,
        "sparse.solve_s": secs["sparse.solve"] / n,
        "sparse.solves": calls["sparse.solve"] / n,
        "sparse.factor_s": secs["sparse.factor"] / n,
        "sparse.factorizations": factorizations / n,
        "sparse.trisolve_s": secs["sparse.trisolve"] / n,
        "sparse.lu_nnz": tracer.counts["sparse.lu_nnz"] / factorizations,
        "diagnostics.record_s": secs["diagnostics.record"] / n,
        "diagnostics.records": calls["diagnostics.record"] / n,
        "diagnostics.check_s": secs["diagnostics.check"] / n,
        "diagnostics.csv_s": secs["diagnostics.csv"] / n,
        "diagnostics.csv_bytes": first.csv_bytes,
        "trace.overhead_frac": (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in untraced) - 1.0),
        "trace.unaccounted_frac": unaccounted,
    }


def record_reference(path: Path) -> None:
    """Write the final diagnostics of every preset run the workloads make."""
    runs = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        bench = Bench({}, Path(tmp))
        sizes = {(w.nx, w.steps, w.presets) for w in WORKLOADS.values()}
        sizes |= {(SMOKE_NX, SMOKE_STEPS, w.presets) for w in WORKLOADS.values()}
        for nx, steps, presets in sorted(sizes):
            for case, doping in presets:
                _, _, problem, eq, config = bench.setup(case, doping, nx, steps)
                _, records = bench.dv.run(problem, config, eq)
                key = ref_key(case, doping, nx, steps)
                runs[key] = {name: getattr(records[-1], name) for name in REF_FIELDS}
                print(f"recorded {key}", flush=True)
    data = {"environment": environment(0), "fp_tol": FP_TOL, "fields": REF_FIELDS,
            "runs": runs}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the preset runs of a pass")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measurement time; passes stop before exceeding it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nx", type=int, default=None,
                        help="override the workload's mesh size (smoke test)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the workload's step count (smoke test)")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference diagnostics and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftfv" / "__init__.py").is_file():
        print(f"driftfv sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"{spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference(args.reference)
        return 0

    spec = json.loads(spec_path.read_text())
    reference = json.loads(args.reference.read_text())["runs"]
    env = environment(args.seed)
    base = WORKLOADS[args.workload]
    nx = args.nx or base.nx
    steps = args.steps or base.steps
    order = list(base.presets)
    random.Random(args.seed).shuffle(order)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        bench = Bench(reference, Path(tmp))
        # Warm-up: first calls into numpy, scipy and driftfv, not measured.
        for case, doping in dict.fromkeys(order):
            bench.preset_run(case, doping, 4, 1, PassResult(), check=False)

        passes, traced, tracer = [], [], None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(bench.run_pass(order, nx, steps))
            if len(passes) == 1:
                # Later passes only add heap fragmentation, and their number
                # depends on speed; the first pass sets the workload's peak.
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                bench.tracer = tracer
                restore = tracing.instrument(tracer)
                try:
                    traced.append(bench.run_pass(order, nx, steps))
                finally:
                    restore()
                    bench.tracer = None
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > args.seconds:
                break
        setups = [p.runs for p in passes]
        if not args.trace:
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(bench.setup_sample(order, nx))

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]
    metrics = e2e = end_to_end(passes, setups, peak_rss_kb)
    steps_all = [r.scaled(t) for p in passes for r in p.runs for t in r.steps]
    tail = tail_percentile(steps_all)
    report = {"failed_share": len(failures) / attempted}
    if tail is not None:
        report[f"step_ms.p{tail[0]:g}"] = 1e3 * tail[1]
    problems = list(failures)
    if not failures and any(p.picard_iters != passes[0].picard_iters for p in everything):
        problems.append("Picard iteration counts differ between passes of the same inputs")
    if tracer is not None:
        metrics = per_layer(tracer, traced, passes)
        unaccounted = metrics["trace.unaccounted_frac"]
        print(f"layer self times leave {unaccounted:.2%} of the traced wall time "
              f"unaccounted (limit {UNACCOUNTED_LIMIT:.0%})")
        if abs(unaccounted) > UNACCOUNTED_LIMIT:
            problems.append("traced layers do not account for the wall time")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    for problem in problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}: {len(passes)} pass(es) of {len(order)} preset "
          f"run(s) at {nx}x{nx}, {steps} steps, dt={DT:g}, fp_tol={FP_TOL:g}"
          + (f"; {len(traced)} traced" if traced else ""))
    for m in wanted:
        print(f"  {m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"  {'failed_share':34s} {report['failed_share']:14.6g} share "
          f"({len(failures)}/{attempted} runs)")
    if not args.trace:
        for name in ("raw.wall_s", "raw.setup_s", "raw.steps_per_s", "raw.step_ms.p50",
                     "host.kernel_ms"):
            print(f"  {name:34s} {e2e[name]:14.6g}")
        if tail is None:
            print(f"  step_ms.tail: omitted, {len(steps_all)} steps leave no "
                  "percentile with 10 beyond it")
        else:
            print(f"  {'step_ms.tail (p%g)' % tail[0]:34s} {1e3 * tail[1]:14.6g} ms "
                  f"({len(steps_all)} steps)")

    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "nx": nx, "steps": steps,
         "order": [f"{c}_{d}" for c, d in order], "passes": len(passes),
         "traced_passes": len(traced), "failures": problems,
         "setup_samples": [[{"setup_s": r.setup, "kernel_ms": 1e3 * r.kernel} for r in s]
                           for s in setups],
         "pass_samples": [[{"wall_s": r.wall, "setup_s": r.setup, "kernel_ms": 1e3 * r.kernel,
                            "step_ms": [1e3 * t for t in r.steps]} for r in p.runs]
                          for p in passes],
         "metrics": {**e2e, **metrics, **report}}, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl", {"environment": env})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
