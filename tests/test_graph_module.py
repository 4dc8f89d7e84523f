"""Unit tests for the module tracer."""

import pytest

from repro.graph.module import Module, ProfileContext, Sequential
from repro.graph.ops import Add, Dropout, Linear, Relu
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.tensor import TensorSpec

from tests.helpers import TinyUnit


def test_profile_records_activations_and_costs():
    unit = TinyUnit("u", 8)
    p = unit.profile(TensorSpec((2, 8), FLOAT32))
    assert p.output == TensorSpec((2, 8), FLOAT32)
    # lin1 (transient), gelu (saved), lin2 (transient), relu (saved)
    assert len(p.activations) == 4
    assert [a.saved for a in p.activations] == [False, True, False, True]
    assert p.param_count == 2 * (8 * 8 + 8)
    assert p.fwd_flops > 0
    assert p.bwd_flops > p.fwd_flops  # backward costs more
    assert len(p.op_costs) == 4


def test_profile_differs_per_input_spec():
    unit = TinyUnit("u", 8)
    p1 = unit.profile(TensorSpec((2, 8), FLOAT32))
    p2 = unit.profile(TensorSpec((4, 8), FLOAT32))
    assert p1.saved_bytes < p2.saved_bytes


def test_hierarchical_names():
    unit = TinyUnit("blk", 8)
    p = unit.profile(TensorSpec((1, 8), FLOAT32))
    assert all(a.name.startswith("blk/") for a in p.activations)


def test_sequential_composes_children():
    seq = Sequential("seq", [TinyUnit("a", 8), TinyUnit("b", 8)])
    p = seq.profile(TensorSpec((2, 8), FLOAT32))
    assert len(p.activations) == 8
    names = [a.name for a in p.activations]
    assert any("seq/a/" in n for n in names)
    assert any("seq/b/" in n for n in names)


def test_sequential_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Sequential("s", [])
    with pytest.raises(ValueError):
        Sequential("s", [TinyUnit("a", 8), TinyUnit("a", 8)])


def test_module_requires_name():
    with pytest.raises(ValueError):
        TinyUnit("", 8)


def test_saved_and_transient_byte_split():
    unit = TinyUnit("u", 16)
    p = unit.profile(TensorSpec((4, 16), FLOAT32))
    expected_each = 4 * 16 * 4
    assert p.transient_bytes == 2 * expected_each  # the two linear outputs
    assert p.saved_bytes == 2 * expected_each  # gelu + relu outputs
    assert p.total_activation_bytes == 4 * expected_each
    assert len(p.saved_activations()) == 2


class BranchyUnit(Module):
    """Exercises multi-input ops and dropout masks in one trace."""

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        a = ctx.op(Linear(8, 8), x, name="a")
        b = ctx.op(Relu(), a, name="b")
        c = ctx.op(Add(), b, x, name="c")
        return ctx.op(Dropout(0.1), c, name="d")


def test_branchy_module_traces_every_op():
    unit = BranchyUnit("br")
    p = unit.profile(TensorSpec((2, 8), FLOAT32))
    # linear out, relu out, add out, dropout out, dropout mask
    assert len(p.activations) == 5
    kinds = {a.op_kind for a in p.activations}
    assert kinds == {"reduction", "elementwise"}
    assert len(p.op_costs) == 4  # mask is not a kernel


def test_scalar_output_not_recorded():
    from repro.graph.ops import CrossEntropyLoss

    class LossUnit(Module):
        def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
            return ctx.op(CrossEntropyLoss(), x, name="loss")

    p = LossUnit("l").profile(TensorSpec((4, 10), FLOAT32))
    # the scalar loss itself is not an activation; the saved probs are
    assert [a.spec.shape for a in p.activations] == [(4, 10)]
