"""Every benchmark input instance still gives its stored reference output.

The timed benchmark runs measure only some of the instances of each workload
(``workloads.PROFILES["full"]["measured"]``); this builds all of the ``full``
profile's instances with ``bench/workloads.py``, runs each once and compares
its output with ``bench/reference/`` by the benchmark's own
``workloads.mismatch``. It only reads ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402 - needs the path above


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_full_instance_matches_its_reference(name, tmp_path):
    bank = workloads.PROFILES["full"]["bank"]
    reference = json.loads((BENCH / "reference" / f"full-{name}.json").read_text())
    assert len(reference["outputs"]) == bank
    wl = workloads.build(name, "full", 0, tmp_path, indices=range(bank))
    assert sorted(inst.index for inst in wl.instances) == list(range(bank))
    problems = []
    for inst in wl.instances:
        problem = workloads.mismatch(reference["outputs"][inst.index], inst.run())
        if problem:
            problems.append(f"instance {inst.index}: {problem}")
    assert not problems
