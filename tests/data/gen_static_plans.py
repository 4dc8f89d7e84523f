#!/usr/bin/env python3
"""Regenerate the static-plan goldens (``tests/data/static_plans.json``).

One record per (task, offline planner, budget) of
``helpers_static_plans``: the plan the planner settles on at setup —
its label, its sorted per-unit actions and its segments.  The goldens
pin the offline planners' exact-peak acceptance loops on all seven
tasks; only regenerate them for an *intentional* plan change, and say so
in the commit message.

Usage::

    PYTHONPATH=src python tests/data/gen_static_plans.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

OUT = pathlib.Path(__file__).parent / "static_plans.json"


def main() -> None:
    from helpers_static_plans import static_plans, task_names

    goldens: dict[str, dict[str, object]] = {}
    for abbr in task_names():
        goldens.update(static_plans(abbr))
    OUT.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} static plans to {OUT}")


if __name__ == "__main__":
    main()
