"""Smoke test of the benchmark: every workload at a tiny length.

Run from the repository root::

    python3 -m pytest perfbench/test_run.py

Checks that each workload passes its output checks, that the last line
of standard output is the machine-readable result, and that it carries
every metric ``BENCHMARK.json`` names, with the same unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

#: iterations per run, long enough for Mimose to collect, fit and plan
TINY = {
    "mimose-steady": 24,
    "dtr-reactive": 6,
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_benchmark() -> None:
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(TINY) == sorted(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload(name: str, trace: int, capsys) -> None:
    tiny = {name: replace(run.WORKLOADS[name], iterations=TINY[name])}
    argv = ["--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    code = run.main(argv, workloads=tiny)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    # the human-readable report names every end-to-end metric, oom_rate
    # included, and the deterministic counters
    text = "\n".join(lines[:-1])
    for metric in [*dict(run.END_TO_END), "oom_rate", *run.COUNTERS]:
        assert f"  {metric} " in text
    if trace:
        assert (run.OUT / f"spans-{name}-seed3.json").is_file()


def test_fails_without_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dtr-reactive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
