"""pathmeter benchmark: seeded experiment workloads, closed loop, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crosscheck_qubit --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Each experiment is an in-process `pathmeter.cli.run(cfg)` followed by
`pathmeter.cli.emit(bundle, "csv", tmpdir)`, which is what `pathmeter run`
costs after start-up; the next experiment starts only when the previous
one has finished. The configs come from `workloads.py` and the seed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The line before it holds the run facts: machine, versions, seed, sample
counts and the computed work counts of one experiment. `--smoke` runs
every workload at toy size and checks the output against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import fmean, median

import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
POOL = 8  # configs per run, cycled; each runs at least once, so margins compare
COLD_STARTS = 15  # timed interpreter starts behind setup_s

RESIDUALS = ("path_completeness", "marginal_completeness", "fourier_consistency",
             "probability_mass", "paths_vs_lambda", "weak_limit_bound",
             "transform_field", "kernel_roundtrip", "kernel_unitarity",
             "basis_change_norm", "sum_rule", "boundary_flux")


class BenchError(Exception):
    """The checkout has no usable pathmeter source tree."""


# ---------------------------------------------------------------- facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS as it is in effect now."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "one process, one client, closed loop; threads only in numpy's pool",
    }


# ---------------------------------------------------------------- set-up


def _import_cli():
    if not (SRC / "pathmeter" / "cli.py").is_file():
        raise BenchError(f"no pathmeter source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathmeter.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pathmeter":
        raise BenchError(f"imported pathmeter from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds(starts: int) -> float:
    """Median wall time of a fresh interpreter up to `import pathmeter.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import pathmeter.cli"]
    # the first start writes the bytecode cache, which `pathmeter run` reuses
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


# ---------------------------------------------------------------- experiments


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_outputs(cfg: dict, bundle, written) -> list:
    """Failed checks of one experiment: residuals, then written row counts
    against the readout grid size or the bin count."""
    bad = [f"residual {name} = {r['value']:.3e} > tol {r['tol']:.1e}"
           for name, r in sorted(bundle.residuals.items()) if not r["pass"]]
    files = {os.path.basename(p): p for p in written}
    for name in ("residuals.json", "metadata.json"):
        if name not in files:
            bad.append(f"{name} not written")
    for name, table in bundle.tables.items():
        if name == "bins":
            rows = len(table["re_0"])
            dim = sum(col.startswith("re_") for col in table)
            if not 1 <= rows <= dim ** cfg["time"]["slices"]:
                bad.append(f"bins: {rows} bins for {dim}^N paths")
        else:
            rows = cfg["meters"][0]["grid"]["points"]
        path = files.get(f"{name}.csv")
        if path is None:
            bad.append(f"table {name} not written")
            continue
        with open(path, "rb") as fh:
            got = fh.read().count(b"\n") - 1
        if got != rows:
            bad.append(f"table {name}: {got} rows, expected {rows}")
    return bad


class Loop:
    """Closed-loop experiment runner with its correctness bookkeeping.

    Config i of the pool runs as experiment i, i + POOL, ...; every run of
    config 0 is hashed and must match the first byte for byte.
    """

    def __init__(self, cli, pool, tmp: Path):
        self.cli = cli
        self.pool = pool
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.margins = {}  # (pool index, residual name) -> log10(tol / value)
        self.reference = None
        self.stable = True

    def experiment(self, i: int, tracer=None):
        """Run pool config i; its wall time, or None if it raised."""
        cfg = self.pool[i % len(self.pool)]
        out = self.tmp / f"exp{self.attempted}"
        traced = (tracer.active(self.attempted) if tracer is not None
                  else contextlib.nullcontext())
        self.attempted += 1
        try:
            with traced:
                t0 = time.perf_counter()
                bundle = self.cli.run(cfg)
                written = self.cli.emit(bundle, "csv", str(out))
                elapsed = time.perf_counter() - t0
            bad = check_outputs(cfg, bundle, written)
        except Exception:  # noqa: BLE001 -- a raising experiment is a counted failure
            traceback.print_exc()
            self.failed += 1
            return None
        if i % len(self.pool) == 0:
            digest = _digest(written)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                self.stable = False
                bad.append("outputs of a repeated config differ byte for byte")
        for name, r in bundle.residuals.items():
            m = math.log10(r["tol"] / max(r["value"], 1e-30)) if r["tol"] > 0 else -math.inf
            key = (i % len(self.pool), name)
            self.margins[key] = min(m, self.margins.get(key, math.inf))
        shutil.rmtree(out)
        if bad:
            self.failed += 1
            for line in bad:
                print(f"experiment {self.attempted - 1} failed: {line}", file=sys.stderr)
        return elapsed

    def margin(self, name: str, stat) -> float:
        """`stat` over the pool configs of one residual's margin, in decades."""
        values = [m for (_, n), m in self.margins.items() if n == name]
        return stat(values) if values else 0.0

    def residual_margin(self) -> float:
        """Tightest residual by its mean margin over the pool configs."""
        names = {n for _, n in self.margins}
        return min((self.margin(n, fmean) for n in names), default=0.0)

    def measure(self, seconds: float, tracer=None) -> tuple:
        """Experiments for `seconds`, every pool config at least once.

        Returns the untraced times and, with a tracer, the traced times and
        their experiment ids: each config then runs untraced and at once
        again traced, so a drift in the machine's speed hits both alike.
        """
        times, traced, ids = [], [], []
        t_end = time.perf_counter() + seconds
        i = 0
        while i < len(self.pool) or time.perf_counter() < t_end:
            t = self.experiment(i)
            if t is not None:
                times.append(t)
            if tracer is not None:
                ids.append(self.attempted)
                t = self.experiment(i, tracer)
                if t is not None:
                    traced.append(t)
            i += 1
        return times, traced, ids


def bench(workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool = False, inject: bool = False) -> tuple:
    """One benchmark run; returns (result line, facts)."""
    cli = _import_cli()
    setup_s = None if trace else setup_seconds(1 if smoke else COLD_STARTS)
    pool = workloads.configs(workload, seed, POOL, smoke=smoke)
    if inject:  # every residual with a config tolerance fails
        for cfg in pool:
            cfg["tolerances"] = {k: -1.0 for k in cli.DEFAULT_TOLERANCES}
    facts = machine_facts(workload, seed)
    tracer = spans.Tracer()
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    try:
        loop = Loop(cli, pool, tmp)
        # untimed warm-up of config 0: traced once for the work counts, and
        # the reference digest of the byte-stability check
        loop.experiment(0, tracer)
        counts = tracer.work_counts(0)
        times, traced, experiments = loop.measure(seconds, tracer if trace else None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    p50 = median(times) if times else 0.0
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "experiment_s_p50": p50,
            "experiments_per_s": len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
            "residual_margin_dec": loop.residual_margin(),
        }
        units = {"setup_s": "s", "experiment_s_p50": "s", "experiments_per_s": "1/s",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio", "residual_margin_dec": "dec"}
    else:
        metrics = tracer.layer_times(experiments)
        metrics.update(counts)
        metrics.update({f"margin.{name}": loop.margin(name, min) for name in RESIDUALS})
        traced_p50 = median(traced) if traced else 0.0
        metrics["trace.experiment_s_p50"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - p50
        units = {name: "dec" if name.startswith("margin.") else spans.unit(name)
                 for name in metrics}
        facts["layer_self_share"] = tracer.layer_shares(experiments)
    facts.update({"experiments_timed": len(times) + len(traced),
                  "byte_stable": loop.stable, "computed_counts": counts})
    result = {
        "correct": loop.failed == 0 and loop.stable and bool(times),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, facts


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload at toy size: every named metric printed with its unit,
    and an injected failing residual counted as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = bench(name, 0, 0.2, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                problems.append(f"{name} {key}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {key}: run not correct")
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            result, _ = bench(name, 0, 0.2, False, smoke=True, inject=True)
        ok = result["metrics"]["ok_ratio"]["value"]
        if result["correct"] or ok >= 1.0:
            problems.append(f"{name}: injected residual failure not counted")
        if "failed: residual " not in log.getvalue():
            problems.append(f"{name}: failing residual not named")
        print(f"smoke {name}: ok, injected failure gives ok_ratio {ok}", flush=True)
    for p in problems:
        print(f"smoke FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size run of every workload with self-checks")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, facts = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
