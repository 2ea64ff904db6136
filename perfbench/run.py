"""Closed-loop chain benchmark for hypercal.

    python3 perfbench/run.py --workload vnir-run --seed 0 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports ``hypercal`` from
``src/``.  Each workload is one stock CLI chain at the desk-scale defaults,
run in a fresh interpreter with a fresh output directory that is deleted
after its closed-loop check (see ``closed_loop.py``).  ``--seed`` is passed
to the CLI, so seed 0 is the default config.  The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print the environment and every metric with its unit.

``--trace 0`` measures the end-to-end metrics: whole chains are repeated
until ``--seconds`` have elapsed (at least one), after a few set-up-only
runs.  ``--trace 1`` makes one traced chain, with spans around every
module's public functions, plus the kernel microbenchmarks, and reports the
per-layer metrics.  See ``README.md`` for the metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_VNIR_RUN_STAGES = ("simulate", "caldark", "flat-field", "bunch",
                    "interference", "stray", "smile", "absolute-shift",
                    "keystone", "geocal", "ortho", "report")
_DUAL_BUNDLE_STAGES = ("simulate", "caldark", "flat-field", "geocal", "ortho",
                       "bundle")

# workload -> (CLI arguments, stages the chain must report)
WORKLOADS = {
    "vnir-run": (("run", "--preset", "vnir"), _VNIR_RUN_STAGES),
    "dual-bundle": (("bundle",), _DUAL_BUNDLE_STAGES),
}

# layer that produces each closed-loop error
ERROR_LAYERS = {"smile_err_nm": "spectral", "keystone_err_px": "spectral",
                "shift_err_nm": "spectral", "bundle_residual_px": "geometry"}

SETUP_PROBES = 4        # set-up-only runs per measured run, after a warm-up
RUN_LIMIT_S = 170.0     # every child is killed before the run would pass this


def _describe(values, unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    v = sorted(values)
    n = len(v)
    text = f"median {statistics.median(v):.4f} {unit}, n={n}"
    if n >= 11:
        i = n - 11
        text += f", p{100.0 * (i + 1) / n:.0f} {v[i]:.4f} {unit}"
    else:
        text += " (no tail percentile below 11 samples)"
    return text


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    """Fresh-interpreter environment: sources from ``src/`` and BLAS pinned
    to ``nproc`` threads so both sides of a comparison match."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypercal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": _nproc(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


class Bench:
    """Runs child invocations inside one scratch directory of the checkout
    and tallies attempts and failures."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.cli_args, self.stages = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.child_info = {}

    def invoke(self, mode: str):
        """Run ``child.py`` in ``mode``; returns ``(record, spawn time,
        run directory)``.  The caller deletes the run directory."""
        run_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.work))
        record_path = run_dir / "record.json"
        argv = [sys.executable, str(HERE / "child.py"), str(record_path), mode]
        if mode != "kernels":
            argv += [*self.cli_args, "--seed", str(self.seed),
                     "--out", str(run_dir / "out")]
        self.attempted += 1
        with open(run_dir / "child.log", "wb") as log:
            spawn = time.monotonic()
            try:
                subprocess.run(argv, env=self.env, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT,
                               timeout=max(self.deadline - spawn, 1.0))
            except subprocess.TimeoutExpired:
                pass    # killed and reaped; the record says what finished
        record = {}
        if record_path.is_file():
            record = json.loads(record_path.read_text())
        for key in ("using_numba", "blas_threads"):
            if key in record:
                self.child_info[key] = record[key]
        if record.get("exit_code") != 0:
            self.fail(f"{mode} exited with {record.get('exit_code')}; "
                      f"log tail:\n" + self._tail(run_dir / "child.log"))
        return record, spawn, run_dir

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    @staticmethod
    def _tail(path: Path, lines: int = 15) -> str:
        text = path.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def check_chain(self, run_dir: Path):
        """Closed-loop check of a finished chain.  Returns its errors and
        tolerance shares, or ``None`` if its outputs cannot be read; a
        failed check is counted as a failed run."""
        from closed_loop import check

        try:
            errors, shares, problems = check(run_dir / "out", self.stages)
        except (OSError, KeyError, ValueError) as exc:
            self.fail(f"closed-loop check could not read outputs: {exc!r}")
            return None
        if problems:
            self.fail("; ".join(problems))
        return errors, shares


def measure_end_to_end(bench: Bench, seconds: float):
    """Set-up probes, then whole chains until ``seconds`` have elapsed."""
    start = time.monotonic()
    setup, chain, rss, shares, errors = [], [], [], [], {}
    for i in range(SETUP_PROBES + 1):
        record, spawn, run_dir = bench.invoke("setup")
        if i > 0 and "config_ready" in record:  # first run warms caches
            setup.append(record["config_ready"] - spawn)
        shutil.rmtree(run_dir)
    while True:
        t0 = time.monotonic()
        record, spawn, run_dir = bench.invoke("chain")
        if record.get("exit_code") == 0:
            result = bench.check_chain(run_dir)
            setup.append(record["config_ready"] - spawn)
            chain.append(record["chain_end"] - record["config_ready"])
            rss.append(record["peak_rss_kb"] / 1024.0)
            if result is not None:
                for name, value in result[0].items():
                    errors.setdefault(name, []).append(value)
                shares.append(statistics.fmean(result[1].values()))
        shutil.rmtree(run_dir)
        now = time.monotonic()
        # start another chain only if one more fits in the time left
        if now + (now - t0) > min(start + seconds, bench.deadline):
            break
    if not chain or not setup or not shares:
        return None
    lines = [
        f"chain_s             {_describe(chain, 's')}",
        f"setup_s             {_describe(setup, 's')}",
        f"peak_rss_mb         {_describe(rss, 'MB')}",
        f"failed_runs         {bench.failed} of {bench.attempted} runs "
        f"({100.0 * bench.failed / bench.attempted:.1f} %)",
    ]
    for name, values in errors.items():
        lines.append(f"{name:<19} {_describe(values, name[-2:])}")
    lines.append(f"recovery_tol_share  {_describe(shares, 'ratio')}")
    metrics = {
        "chain_s": (statistics.median(chain), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "recovery_tol_share": (statistics.median(shares), "ratio"),
    }
    return metrics, lines


def measure_layers(bench: Bench):
    """One traced chain and the kernel microbenchmarks."""
    from spans import layer_metrics

    record, _, run_dir = bench.invoke("trace")
    if record.get("exit_code") != 0:
        return None
    result = bench.check_chain(run_dir)
    shutil.rmtree(run_dir)
    layers = layer_metrics(record["spans"], record["stage_marks"],
                           record["chain_start_pc"])
    # each estimator's recovered-minus-injected error, 0 where the
    # workload lacks its stage
    errors = result[0] if result is not None else {}
    for name, layer in ERROR_LAYERS.items():
        layers[f"{layer}.{name}"] = errors.get(name, 0.0)
    # tracing overhead: this minus the untraced median chain_s at the seed
    layers["trace.chain_s"] = record["chain_end"] - record["config_ready"]
    layers["trace.spans"] = float(len(record["spans"]))

    record, _, run_dir = bench.invoke("kernels")
    shutil.rmtree(run_dir)
    if record.get("exit_code") != 0:
        return None
    layers.update(record["bench"])
    layers["kernels.using_numba"] = float(record["using_numba"])

    lines = [f"{name:<46} {value:.6g}" for name, value in layers.items()]
    return {k: (v, _unit(k)) for k, v in layers.items()}, lines


def _unit(name: str) -> str:
    for suffix, unit in (("mpts_per_s", "Mpt/s"), ("_us", "us"),
                         ("_nm", "nm"), ("_px", "px"),
                         ("bytes_computed", "B"), (".bytes", "B"),
                         ("_ops", "ops"), ("ratio", "ratio"),
                         ("using_numba", "bool"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"    # calls, band planes, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "hypercal" / "__init__.py").is_file():
        print(f"perfbench: no hypercal sources under {ROOT / 'src'}; run "
              "from the root of a hypercal checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args)
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    try:
        bench = Bench(args.workload, args.seed, work, deadline)
        if args.trace:
            result = measure_layers(bench)
        else:
            result = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    env.update(bench.child_info)
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in bench.problems:
        print(f"# FAILED: {problem}")
    if result is None:
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    metrics, lines = result
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
