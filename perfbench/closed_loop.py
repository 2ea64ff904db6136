"""Closed-loop check of one chain's outputs against its injected truth.

Reads ``summary.csv``, ``manifest.json``, ``smile_model.json`` and
``keystone_model.json`` from a run's output directory and checks the
recovered-minus-injected errors against the tolerances of acceptance
criteria 03, 04, 05, 07 and 12 in ``tests/test_acceptance.py``.  Which
checks apply follows from the stages present in the summary.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SMILE_P2P_TOL_NM = {"vnir": 0.5, "swir": 0.8}      # criterion 03
SMILE_RESIDUAL_TOL_BANDS = 0.1                      # criterion 03
SHIFT_TOL_NM = {"vnir": 0.5, "swir": 0.8}           # criterion 04
KEYSTONE_TOL_PX = 0.1                               # criterion 05
BUNDLE_TOL_PX = 0.25                                # criterion 12
BUNDLE_MERGED_BANDS = 309                           # criterion 12


def read_summary(path: Path) -> dict:
    """``{stage: {metric: value}}`` from ``summary.csv``."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["stage"], {})[row["metric"]] = \
                float(row["value"])
    return rows


def check(out: Path, stages: tuple) -> tuple:
    """Check one chain's output directory.

    Returns ``(errors, shares, problems)``: the recovered-minus-injected
    errors by metric name, each checked error as a share of its tolerance,
    and a list of failed checks (empty when the run passes).
    """
    from hypercal.spectral import KeystoneModel

    problems = []
    errors = {}
    shares = {}

    def within(name, value, tol):
        shares[name] = value / tol
        if not value < tol:
            problems.append(f"{name} = {value:.4g} not below {tol:.4g}")

    summary = read_summary(out / "summary.csv")
    missing = [s for s in stages if s not in summary]
    extra = [s for s in summary if s not in stages]
    if missing or extra:
        problems.append(f"summary stages differ: missing {missing}, "
                        f"unexpected {extra}")
    for stage, metrics in summary.items():
        for metric, value in metrics.items():
            if math.isinf(value):
                problems.append(f"{stage}.{metric} is infinite")

    manifest = json.loads((out / "manifest.json").read_text())
    instrument = manifest["instrument"]

    if "smile" in summary:
        injected = np.asarray(manifest["smile_nm"])        # (bands, samples)
        centre = injected.shape[1] // 2
        injected = injected - injected[:, centre:centre + 1]
        model = json.loads((out / "smile_model.json").read_text())
        recovered = np.asarray(model["offsets_nm"])        # 0 at centre
        errors["smile_err_nm"] = float(np.abs(recovered - injected).max())
        p2p_injected = float(np.ptp(injected, axis=1).max())
        smile = summary["smile"]
        within("smile_p2p_err_nm",
               abs(abs(smile["peak_to_peak_nm"]) - p2p_injected),
               SMILE_P2P_TOL_NM[instrument])
        within("smile_residual_bands", smile["residual_fraction_of_band"],
               SMILE_RESIDUAL_TOL_BANDS)

    if "keystone" in summary:
        model = KeystoneModel.from_json(out / "keystone_model.json")
        injected = np.asarray(manifest["keystone_px"])
        errors["keystone_err_px"] = float(
            np.abs(model.shifts() - injected).max())
        within("keystone_err_px", errors["keystone_err_px"], KEYSTONE_TOL_PX)

    if "absolute-shift" in summary:
        errors["shift_err_nm"] = abs(summary["absolute-shift"]["delta_nm"]
                                     - manifest["center_error_nm"])
        within("shift_err_nm", errors["shift_err_nm"],
               SHIFT_TOL_NM[instrument])

    if "bundle" in summary:
        errors["bundle_residual_px"] = \
            summary["bundle"]["registration_residual_px"]
        within("bundle_residual_px", errors["bundle_residual_px"],
               BUNDLE_TOL_PX)
        if summary["bundle"]["merged_bands"] != BUNDLE_MERGED_BANDS:
            problems.append(f"bundle merged {summary['bundle']['merged_bands']:g}"
                            f" bands, not {BUNDLE_MERGED_BANDS}")

    if "bunch" in summary:
        bunch = summary["bunch"]
        injected = len(manifest["bunch"])
        if not bunch["clusters_injected"] == bunch["clusters_detected"] \
                == injected:
            problems.append(f"bunch clusters: {injected} injected, "
                            f"{bunch['clusters_detected']:g} detected")
    return errors, shares, problems
