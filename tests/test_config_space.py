"""Config-space properties of the command line: over presets, small cube
sizes, ordered stage subsets and one stage parameter set to a value of any
JSON type, ``hypercal run`` exits 0, 2 or 3 without a traceback, and a run
that exits 0 writes the same bytes when repeated into another directory."""

import json
import os
import tempfile

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hypercal.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from hypercal.pipeline import PRESETS, STAGES, default_config

CHAIN = default_config(preset="dual").stage_names()

SCALARS = (st.none() | st.booleans() | st.integers(-2, 2)
           | st.integers(-300, 300)
           | st.floats(-300.0, 300.0, allow_nan=False)
           | st.sampled_from(["", "x", "3", "-1", "0.5", "uniform",
                              "periodic"])
           | st.text(max_size=4))
VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=12), inner,
                                              max_size=3)),
    max_leaves=4)


def _with_prerequisites(subset):
    """The subset plus every stage that must run earlier: ``after`` entries
    and the first stage providing each run-state input."""
    todo, done = list(subset), set()
    while todo:
        stage = STAGES[todo.pop()]
        if stage.name in done:
            continue
        done.add(stage.name)
        todo.extend(stage.after)
        todo.extend(next(n for n in CHAIN if key in STAGES[n].provides)
                    for key in stage.needs)
    return done


@st.composite
def invocations(draw):
    """A config document, the ``--stages`` subset to run, and a summary of
    the draw for failure reports."""
    preset = draw(st.sampled_from(PRESETS))
    stages = [dict(name=name, **params)
              for name, params in default_config(preset="dual").stages]
    stages[0].update(lines=draw(st.integers(1, 64)),
                     samples=draw(st.integers(1, 64)),
                     bands=draw(st.integers(1, 8)))
    stages[-1]["preview_bands"] = [3]
    target = draw(st.sampled_from(CHAIN))
    key = draw(st.sampled_from(sorted(STAGES[target].params)))
    subset = {target, *draw(st.lists(st.sampled_from(CHAIN)))}
    if draw(st.booleans()):
        subset = _with_prerequisites(subset)
    subset = sorted(subset, key=CHAIN.index)
    value = draw(VALUES)
    stages[CHAIN.index(target)][key] = value
    return {"preset": preset, "stages": stages}, subset


def _files(root):
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_code_promise_and_determinism(invocation):
    doc, subset = invocation
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        argv = ["run", "--config", cfg, "--stages", ",".join(subset)]
        rc = main(argv + ["--out", os.path.join(tmp, "a")])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE)
        event(f"exit {rc}")
        if rc == EXIT_OK:
            assert main(argv + ["--out", os.path.join(tmp, "b")]) == EXIT_OK
            first = _files(os.path.join(tmp, "a"))
            assert first == _files(os.path.join(tmp, "b"))
