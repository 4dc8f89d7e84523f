"""Unit tests for TensorSpec and SimTensor."""

import dataclasses
import math

import pytest

from repro.experiments.tasks import TASKS, load_task
from repro.tensorsim.allocator import CachingAllocator
from repro.tensorsim.dtypes import FLOAT16, FLOAT32, INT64
from repro.tensorsim.tensor import SimTensor, TensorSpec


def test_numel_and_nbytes():
    spec = TensorSpec((4, 8, 16), FLOAT32)
    assert spec.numel == 512
    assert spec.nbytes == 2048
    assert spec.ndim == 3


def test_scalar_spec():
    spec = TensorSpec((), FLOAT32)
    assert spec.numel == 1
    assert spec.nbytes == 4


def test_dtype_changes_nbytes():
    shape = (10, 10)
    assert TensorSpec(shape, FLOAT16).nbytes == 200
    assert TensorSpec(shape, INT64).nbytes == 800


def test_negative_dim_rejected():
    with pytest.raises(ValueError):
        TensorSpec((4, -1))


def test_with_shape_keeps_dtype():
    spec = TensorSpec((2, 3), INT64)
    other = spec.with_shape((6,))
    assert other.dtype is INT64
    assert other.shape == (6,)


def test_specs_hashable_and_equal():
    a = TensorSpec((2, 3), FLOAT32)
    b = TensorSpec((2, 3), FLOAT32)
    assert a == b
    assert hash(a) == hash(b)
    assert a != TensorSpec((2, 3), FLOAT16)


def test_nbytes_is_not_part_of_identity():
    spec = TensorSpec((2, 3), FLOAT16)
    assert "nbytes" not in repr(spec)
    assert [f.name for f in dataclasses.fields(spec) if f.compare] == [
        "shape", "dtype",
    ]
    assert hash(spec) == hash(((2, 3), FLOAT16))
    with pytest.raises(TypeError):
        TensorSpec((2, 3), FLOAT16, 12)


def test_replace_recomputes_nbytes():
    spec = TensorSpec((2, 3), INT64)
    grown = dataclasses.replace(spec, shape=(4, 5, 6))
    assert grown.nbytes == 4 * 5 * 6 * 8
    assert dataclasses.replace(grown, dtype=FLOAT16).nbytes == 4 * 5 * 6 * 2
    assert spec.nbytes == 48


@pytest.mark.parametrize("abbr", sorted(TASKS))
def test_nbytes_matches_shape_in_every_task_profile(abbr):
    task = load_task(abbr, iterations=3, seed=5, calibration_samples=4)
    model = task.fresh_model()
    checked = 0
    for batch in (model.probe_batch(), task.worst_case, *task.loader):
        specs = [batch.spec]
        for profile in model.profiles(batch):
            specs += [profile.input, profile.output]
            specs += [rec.spec for rec in profile.activations]
        for spec in specs:
            assert spec.nbytes == math.prod(spec.shape) * spec.dtype.itemsize
        checked += len(specs)
    assert checked > 0


def test_materialize_and_drop_cycle():
    alloc = CachingAllocator(1 << 24)
    t = SimTensor(TensorSpec((1024,), FLOAT32), "act")
    assert not t.is_materialized
    t.materialize(alloc)
    assert t.is_materialized
    assert alloc.bytes_in_use >= t.nbytes
    t.drop(alloc)
    assert not t.is_materialized
    assert alloc.bytes_in_use == 0


def test_materialize_is_idempotent():
    alloc = CachingAllocator(1 << 24)
    t = SimTensor(TensorSpec((16,), FLOAT32))
    t.materialize(alloc)
    block = t.block
    t.materialize(alloc)
    assert t.block is block
    assert alloc.stats.num_allocs == 1


def test_drop_is_idempotent():
    alloc = CachingAllocator(1 << 24)
    t = SimTensor(TensorSpec((16,), FLOAT32))
    t.materialize(alloc)
    t.drop(alloc)
    t.drop(alloc)  # no double free
    assert alloc.stats.num_frees == 1
