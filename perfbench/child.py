"""One measured program invocation, in a fresh interpreter.

    python perfbench/child.py RECORD MODE [hypercal CLI arguments]

MODE is one of

- ``setup``: run the CLI until it has a validated config, then stop;
- ``chain``: run the CLI chain;
- ``trace``: run the CLI chain with spans around each module's public
  functions (see ``spans.py``);
- ``kernels``: time the fixed-input kernel microbenchmarks.

The record, a JSON file, holds the exit code, the monotonic times at which
the config was ready and the chain ended, peak RSS, the active kernel path
and BLAS thread count, plus the spans or microbenchmark results.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path


class _ConfigReady(Exception):
    """Raised in ``setup`` mode when ``pipeline.run`` is reached."""


def _blas_threads() -> int:
    """OpenBLAS's own thread count, or -1 if no OpenBLAS is loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return -1


def _rebind(original, replacement) -> None:
    """Replace ``original`` in every loaded hypercal namespace."""
    for name, module in list(sys.modules.items()):
        if name == "hypercal" or name.startswith("hypercal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def run_cli(mode: str, argv: list, record: dict, run_id: str) -> None:
    from hypercal import cli, pipeline

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()

    original = pipeline.run

    def timed_run(config):
        record["config_ready"] = time.monotonic()
        record["chain_start_pc"] = time.perf_counter()
        if mode == "setup":
            raise _ConfigReady
        try:
            return original(config)
        finally:
            record["chain_end"] = time.monotonic()

    _rebind(original, timed_run)
    try:
        record["exit_code"] = cli.main(argv)
    except _ConfigReady:
        record["exit_code"] = 0
    if tracer is not None:
        record["spans"] = tracer.spans
        record["stage_marks"] = tracer.stage_marks


def _median_time(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def kernel_bench(record: dict, repeats: int = 3) -> None:
    """Kernel timings on fixed inputs (those of ``benchmarks/bench_kernels``)
    on whichever kernel path is active, with nominal operation counts and
    bytes computed from the array sizes."""
    import numpy as np
    from hypercal import kernels, registration

    rng = np.random.default_rng(0)
    bench = {}

    image = rng.normal(100.0, 10.0, (2048, 2048))
    coords = np.tile(np.arange(2048.0), (2048, 1)) \
        + rng.uniform(-2.0, 2.0, (2048, 2048))
    n = coords.size
    bench["kernels.resample_rows.bench_2048sq_s"] = _median_time(
        lambda: kernels.resample_rows(image, coords), repeats)
    # 4 taps, one multiply-add each; reads image and coords, writes
    # values and the validity mask
    bench["kernels.resample_rows.bench_ops"] = 8.0 * n
    bench["kernels.resample_rows.bench_bytes_computed"] = float(
        image.nbytes + coords.nbytes + 9 * n)

    yy = rng.uniform(0, 2047, (1024, 1024))
    xx = rng.uniform(0, 2047, (1024, 1024))
    n = yy.size
    bench["kernels.bicubic_sample.bench_1024sq_s"] = _median_time(
        lambda: kernels.bicubic_sample(image, yy, xx), repeats)
    bench["kernels.bicubic_sample.bench_ops"] = 32.0 * n   # 16 taps
    bench["kernels.bicubic_sample.bench_bytes_computed"] = float(
        image.nbytes + yy.nbytes + xx.nbytes + 9 * n)

    spectra = rng.uniform(10.0, 100.0, (4, 2251))
    centers = np.tile(np.linspace(450.0, 2450.0, 256)[:, None], (1, 256))
    sigmas = np.full(256, 4.0)
    wl0, dwl = 350.0, 1.0
    bench["kernels.band_integrals.bench_256x256_s"] = _median_time(
        lambda: kernels.band_integrals(spectra, wl0, dwl, centers, sigmas),
        repeats)
    # a +-5 sigma window of grid points per (band, sample, spectrum)
    taps = 10.0 * float(sigmas[0]) / dwl + 1.0
    bench["kernels.band_integrals.bench_ops"] = \
        2.0 * centers.size * spectra.shape[0] * taps
    bench["kernels.band_integrals.bench_bytes_computed"] = float(
        spectra.nbytes + centers.nbytes + sigmas.nbytes
        + 8 * centers.size * spectra.shape[0])

    # the smile (10 bands) and keystone (64 samples) window lengths
    for length, calls in ((10, 400), (64, 400)):
        x = np.arange(3 * length, dtype=np.float64)
        a = 100.0 + 20.0 * np.sin(x / 3.0) + rng.normal(0.0, 1.0, x.size)
        b, _ = registration.shift_signal(a, 0.37)
        a, b = a[length:2 * length].copy(), b[length:2 * length].copy()

        def batch():
            for _ in range(calls):
                registration.shift_1d(a, b)

        per_call = _median_time(batch, repeats) / calls
        key = f"registration.shift_1d.bench_len{length}"
        bench[f"{key}_us"] = per_call * 1e6
        # three length-L FFTs at 5 L log2 L each; reads both signals
        bench[f"{key}_ops"] = 15.0 * length * np.log2(length)
        bench[f"{key}_bytes_computed"] = float(a.nbytes + b.nbytes)
    record["bench"] = bench


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    record_path, mode, cli_argv = Path(argv[0]), argv[1], argv[2:]
    record = {"mode": mode, "exit_code": None}
    try:
        if mode == "kernels":
            kernel_bench(record)
            record["exit_code"] = 0
        else:
            run_cli(mode, cli_argv, record, run_id=record_path.parent.name)
        from hypercal import kernels
        record["using_numba"] = bool(kernels.USING_NUMBA)
        record["blas_threads"] = _blas_threads()
        record["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    finally:
        record_path.write_text(json.dumps(record))
    return 0 if record["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
