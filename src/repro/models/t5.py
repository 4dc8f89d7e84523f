"""T5-base encoder–decoder stack (~220 M parameters).

The translation task (TR-T5 in Table II) runs the full encoder–decoder.  In
this symbolic reproduction the decoder consumes the encoder output spec and
attends over the same sequence length (translation source/target lengths
are comparable); each encoder block and each decoder block is a
checkpointable unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.module import Module, ProfileContext
from repro.graph.ops import (
    Add,
    BatchMatMul,
    Dropout,
    Embedding,
    Gelu,
    LayerNorm,
    Linear,
    Reshape,
    Scale,
    Softmax,
    Transpose,
)
from repro.models.base import SegmentedModel
from repro.tensorsim.dtypes import INT64
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True)
class T5Config:
    """Hyper-parameters of a T5 stack (defaults: t5-base)."""

    vocab_size: int = 32128
    hidden_size: int = 768
    num_layers: int = 12  # per stack (encoder and decoder)
    num_heads: int = 12
    ff_size: int = 3072
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


def _attention(
    ctx: ProfileContext,
    cfg: T5Config,
    x: TensorSpec,
    memory: TensorSpec,
    tag: str,
) -> TensorSpec:
    """Shared (self or cross) attention sub-block."""
    b, q_len, hidden = x.shape
    kv_len = memory.shape[1]
    heads, dim = cfg.num_heads, cfg.head_dim

    def heads_of(t: TensorSpec, length: int, label: str) -> TensorSpec:
        t = ctx.op(Reshape((b, length, heads, dim)), t, name=f"{label}_split")
        return ctx.op(Transpose(1, 2), t, name=f"{label}_perm")

    q = heads_of(ctx.op(Linear(hidden, hidden, bias=False), x, name=f"{tag}_q"), q_len, f"{tag}_q")
    k = heads_of(ctx.op(Linear(hidden, hidden, bias=False), memory, name=f"{tag}_k"), kv_len, f"{tag}_k")
    v = heads_of(ctx.op(Linear(hidden, hidden, bias=False), memory, name=f"{tag}_v"), kv_len, f"{tag}_v")

    scores = ctx.op(BatchMatMul(transpose_b=True), q, k, name=f"{tag}_qk")
    scores = ctx.op(Scale(1.0 / dim**0.5), scores, name=f"{tag}_scale")
    probs = ctx.op(Softmax(), scores, name=f"{tag}_softmax")
    probs = ctx.op(Dropout(cfg.dropout), probs, name=f"{tag}_drop")
    out = ctx.op(BatchMatMul(), probs, v, name=f"{tag}_pv")
    out = ctx.op(Transpose(1, 2), out, name=f"{tag}_merge_perm")
    out = ctx.op(Reshape((b, q_len, hidden)), out, name=f"{tag}_merge")
    out = ctx.op(Linear(hidden, hidden, bias=False), out, name=f"{tag}_o")
    out = ctx.op(Add(), out, x, name=f"{tag}_residual")
    out = ctx.op(LayerNorm(hidden), out, name=f"{tag}_ln")
    return out


def _ffn(ctx: ProfileContext, cfg: T5Config, x: TensorSpec, tag: str) -> TensorSpec:
    h = ctx.op(Linear(cfg.hidden_size, cfg.ff_size, bias=False), x, name=f"{tag}_up")
    h = ctx.op(Gelu(), h, name=f"{tag}_act")
    h = ctx.op(Dropout(cfg.dropout), h, name=f"{tag}_ff_drop")
    h = ctx.op(Linear(cfg.ff_size, cfg.hidden_size, bias=False), h, name=f"{tag}_down")
    h = ctx.op(Add(), h, x, name=f"{tag}_ff_residual")
    h = ctx.op(LayerNorm(cfg.hidden_size), h, name=f"{tag}_ff_ln")
    return h


class T5Embeddings(Module):
    def __init__(self, cfg: T5Config, name: str = "shared_embeddings") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        if x.dtype.is_floating or x.ndim != 2:
            raise ValueError(f"expected integer (batch, seqlen) ids, got {x}")
        h = ctx.op(Embedding(cfg.vocab_size, cfg.hidden_size), x, name="emb")
        h = ctx.op(Dropout(cfg.dropout), h, name="drop")
        return h


class T5EncoderLayer(Module):
    def __init__(self, cfg: T5Config, index: int) -> None:
        super().__init__(f"enc.{index}", checkpointable=True, twin_key=cfg)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        x = _attention(ctx, self.cfg, x, x, "self")
        return _ffn(ctx, self.cfg, x, "enc")


class T5DecoderLayer(Module):
    """Self-attention + cross-attention (over the encoder memory) + FFN."""

    def __init__(self, cfg: T5Config, index: int) -> None:
        super().__init__(f"dec.{index}", checkpointable=True, twin_key=cfg)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        x = _attention(ctx, self.cfg, x, x, "self")
        # Cross attention: the encoder memory has the same (b, len, hidden)
        # spec as x in this chain, so attend over an equally-shaped memory.
        x = _attention(ctx, self.cfg, x, x, "cross")
        return _ffn(ctx, self.cfg, x, "dec")


class T5LMHead(Module):
    """Final layer-norm + logits projection over the vocabulary."""

    def __init__(self, cfg: T5Config, name: str = "lm_head") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        h = ctx.op(LayerNorm(cfg.hidden_size), x, name="final_ln")
        # T5 ties the LM head to the shared embedding matrix, so the
        # projection contributes no new parameters.
        return ctx.op(
            _TiedProjection(cfg.hidden_size, cfg.vocab_size), h, name="logits"
        )


from repro.graph.ops import Op, OpProfile  # noqa: E402  (local helper op)


@dataclass(frozen=True, repr=False)
class _TiedProjection(Op):
    """Linear projection whose weights are tied (no extra parameters)."""

    kind = "reduction"
    in_features: int = 0
    out_features: int = 0

    def profile(self, *inputs: TensorSpec) -> OpProfile:
        self._expect_arity(inputs, 1)
        x = inputs[0]
        if x.shape[-1] != self.in_features:
            raise ValueError(f"tied projection expects {self.in_features}, got {x.shape}")
        out = x.with_shape(x.shape[:-1] + (self.out_features,))
        rows = out.numel // self.out_features
        flops = 2.0 * rows * self.in_features * self.out_features
        traffic = x.nbytes + out.nbytes
        return OpProfile(out, flops, traffic, 2 * flops, 2 * traffic, 0, saved=())


def build_t5_base() -> SegmentedModel:
    """t5-base: 12+12 layers, hidden 768, ~223 M parameters."""
    cfg = T5Config()
    units: list[Module] = [T5Embeddings(cfg)]
    units += [T5EncoderLayer(cfg, i) for i in range(cfg.num_layers)]
    units += [T5DecoderLayer(cfg, i) for i in range(cfg.num_layers)]
    units.append(T5LMHead(cfg))
    return SegmentedModel("t5-base", units, input_dtype=INT64)
