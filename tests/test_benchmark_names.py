"""The ``hypercal`` names that the benchmark harness in ``perfbench/``
reaches still resolve, so deleting one fails here and not only in a
benchmark run."""

import functools
import importlib
from pathlib import Path

import pytest

from hypercal import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# reached outside the span list: child.py (kernel bench, numba flag, CLI
# and chain timing) and closed_loop.py (keystone error check)
REACHED = (
    "kernels.USING_NUMBA", "kernels.resample_rows", "kernels.bicubic_sample",
    "kernels.band_integrals", "registration.shift_signal",
    "registration.shift_1d", "registration.ShiftEstimate",
    "spectral.KeystoneModel.from_json", "spectral.KeystoneModel.shifts",
    "pipeline.ReportBundle.add", "pipeline.run", "cli.main",
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _resolves(dotted):
    module, *attrs = dotted.split(".")
    try:
        functools.reduce(getattr, attrs,
                         importlib.import_module(f"hypercal.{module}"))
    except AttributeError:
        return False
    return True


def test_traced_names_resolve(spans):
    traced = [f"{m}.{f}" for m, names in spans.TRACED.items() for f in names]
    assert traced
    assert [name for name in traced if not _resolves(name)] == []


def test_traced_stages_exist(spans):
    assert set(spans.STAGES) <= set(pipeline.STAGES)


@pytest.mark.parametrize("name", REACHED)
def test_harness_name_resolves(name):
    assert _resolves(name)
