"""The benchmark's workloads drive the library through its module attributes.

These smoke cycles keep a library refactor from breaking those hooks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod          # its dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod


# the pairings of one smoke cycle: one per Sedlock build and one per membership
# rebuild, less the builds of pairs warm enough to contract their basis-symbol
# operators, plus the one pairing of each such tensor
SMOKE_PAIRINGS = {"session-reuse": 15, "suite-low": 112, "suite-high": 115}


@pytest.mark.parametrize("name", ["session-reuse", "suite-low", "suite-high"])
def test_smoke_cycles_repeat(workloads, name):
    work = workloads.make(name, 101, smoke=True)
    first, second = work.run_cycle(), work.run_cycle()
    assert first.verdicts == second.verdicts
    assert first.samples and second.samples
    assert first.quad["pairings"] == second.quad["pairings"] == SMOKE_PAIRINGS[name]
