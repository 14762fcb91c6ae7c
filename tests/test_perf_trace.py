"""The wall-clock trace's wrap points still exist in ``src/``.

``perf/trace.py`` wraps a fixed list of functions and methods through each
owner's ``__dict__`` and raises ``KeyError`` at install when a name has
moved.  It is loaded here by file path, so the test does not depend on the
working directory, and one small connectivity and MST op must record the
selection and DRR layers and leave every original in place afterwards.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro import generators
from repro.runtime import ClusterConfig, RunConfig, Session

_TRACE_PATH = Path(__file__).resolve().parent.parent / "perf" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perf_trace", _TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load_trace()


def _owners_and_originals():
    out = []
    for module_name, cls_name, attr, _, _ in trace.LIBRARY_LAYERS:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
def test_library_layers_record_selection_and_drr(algorithm):
    g = generators.with_unique_weights(generators.gnm_random(120, 360, seed=3), seed=3)
    config = RunConfig(seed=3, cluster=ClusterConfig(k=4))
    originals = _owners_and_originals()
    with trace.installed(trace.Recorder()) as recorder:
        Session().run(algorithm, g, config=config)
    names = {span.name for span in recorder.spans}
    assert {"core.select", "core.drr"} <= names
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr} was not restored"
