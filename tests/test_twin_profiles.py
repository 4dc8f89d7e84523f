"""Twin units share one trace per input spec.

``SegmentedModel.profiles`` traces each distinct unit once per input spec
and derives every twin's profile by renaming that trace.  These tests
hold the shared chain equal, field for field, to tracing every unit on
its own, so a twin key that misses something ``forward`` reads fails
here.
"""

import pytest

from repro.experiments.tasks import TASKS, load_task
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.tensorsim.dtypes import FLOAT32, INT64


def _independent_chain(model, batch):
    x = batch.spec
    out = []
    for unit in model.units:
        p = unit.profile(x)
        out.append(p)
        x = p.output
    return out


def _assert_shared_equals_independent(model, batch):
    # dataclass equality compares every field: names, specs, ``saved``,
    # op costs, flops/bytes and parameter counts
    assert list(model.profiles(batch)) == _independent_chain(model, batch)


@pytest.mark.parametrize("abbr", sorted(TASKS))
def test_shared_profiles_equal_independent_traces(abbr):
    task = load_task(abbr, iterations=3, seed=5, calibration_samples=4)
    model = task.fresh_model()
    batches = [model.probe_batch(), task.worst_case, *task.loader]
    for batch in batches:
        _assert_shared_equals_independent(model, batch)
    # twins were really shared, not traced one by one
    assert model.unit_traces < len(batches) * len(model.units)


def test_swin_stage_twins_equal_independent_traces():
    model = build_model("swin-tiny")
    for shape in ((1, 3, 224, 224), (2, 3, 448, 320), (3, 3, 160, 96)):
        _assert_shared_equals_independent(model, BatchInput(shape, FLOAT32))


def test_new_qa_bert_shape_costs_three_traces():
    model = load_task("QA-Bert", iterations=1).fresh_model()
    assert len(model.units) == 14
    model.profiles(BatchInput((12, 200), INT64))
    # embeddings, one encoder for all twelve, the head
    assert model.unit_traces == 3
    model.profiles(BatchInput((12, 200), INT64))
    assert model.unit_traces == 3
    model.profiles(BatchInput((12, 208), INT64))
    assert model.unit_traces == 6


def test_twins_share_specs_and_costs():
    model = build_model("bert-base")
    chain = model.profiles(BatchInput((2, 32), INT64))
    first, seventh = chain[1], chain[7]
    assert (first.module_name, seventh.module_name) == ("encoder.0", "encoder.6")
    assert seventh.op_costs is first.op_costs
    assert all(
        a.spec is b.spec and b.name == "encoder.6" + a.name[len("encoder.0"):]
        for a, b in zip(first.activations, seventh.activations)
    )
