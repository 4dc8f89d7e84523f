"""GPT-2-small: causal decoder-only transformer (extension model).

Not part of the paper's Table II, but the natural seventh workload: causal
language modelling streams documents of wildly varying length, so it
exhibits exactly the input dynamics Mimose exploits — with the same
quadratic attention memory law (the causal mask halves the *useful*
scores but the materialised ``seqlen x seqlen`` tensors are identical).

GPT-2-small: 12 layers, hidden 768, 12 heads, vocab 50257, ~124 M
parameters.  Each decoder block is a checkpointable unit.
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
class GPT2Config:
    """Hyper-parameters (defaults: gpt2-small)."""

    vocab_size: int = 50257
    hidden_size: int = 768
    num_layers: int = 12
    num_heads: int = 12
    max_position_embeddings: int = 1024
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


class GPT2Embeddings(Module):
    def __init__(self, cfg: GPT2Config, name: str = "embeddings") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        if x.dtype.is_floating or x.ndim != 2:
            raise ValueError(f"expected integer (batch, seqlen) ids, got {x}")
        h = ctx.op(Embedding(cfg.vocab_size, cfg.hidden_size), x, name="wte")
        pos = ctx.op(
            Embedding(cfg.max_position_embeddings, cfg.hidden_size),
            x,
            name="wpe",
        )
        h = ctx.op(Add(), h, pos, name="add_pos")
        h = ctx.op(Dropout(cfg.dropout), h, name="drop")
        return h


class GPT2Block(Module):
    """Pre-norm causal self-attention + MLP — a checkpointable unit."""

    def __init__(self, cfg: GPT2Config, index: int) -> None:
        super().__init__(f"block.{index}", checkpointable=True, twin_key=cfg)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        b, length, hidden = x.shape
        heads, dim = cfg.num_heads, cfg.head_dim

        h = ctx.op(LayerNorm(hidden), x, name="ln1")
        qkv = ctx.op(Linear(hidden, 3 * hidden), h, name="qkv")
        # the causal mask zeroes future positions but the full score
        # matrix is still materialised — memory stays quadratic
        q = TensorSpec((b, heads, length, dim), x.dtype)
        del qkv
        scores = ctx.op(BatchMatMul(transpose_b=True), q, q, name="qk")
        scores = ctx.op(Scale(1.0 / dim**0.5), scores, name="scale")
        probs = ctx.op(Softmax(), scores, name="softmax")
        probs = ctx.op(Dropout(cfg.dropout), probs, name="attn_drop")
        out = ctx.op(BatchMatMul(), probs, q, name="pv")
        out = ctx.op(Transpose(1, 2), out, name="perm")
        out = ctx.op(Reshape((b, length, hidden)), out, name="merge")
        out = ctx.op(Linear(hidden, hidden), out, name="proj")
        out = ctx.op(Dropout(cfg.dropout), out, name="proj_drop")
        x = ctx.op(Add(), out, x, name="attn_residual")

        h = ctx.op(LayerNorm(hidden), x, name="ln2")
        m = ctx.op(Linear(hidden, 4 * hidden), h, name="mlp_up")
        m = ctx.op(Gelu(), m, name="mlp_act")
        m = ctx.op(Linear(4 * hidden, hidden), m, name="mlp_down")
        m = ctx.op(Dropout(cfg.dropout), m, name="mlp_drop")
        return ctx.op(Add(), m, x, name="mlp_residual")


class GPT2LMHead(Module):
    """Final LayerNorm + tied logits projection."""

    def __init__(self, cfg: GPT2Config, name: str = "lm_head") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        from repro.models.t5 import _TiedProjection

        cfg = self.cfg
        h = ctx.op(LayerNorm(cfg.hidden_size), x, name="ln_f")
        return ctx.op(
            _TiedProjection(cfg.hidden_size, cfg.vocab_size), h, name="logits"
        )


def build_gpt2_small() -> SegmentedModel:
    """gpt2-small: 12 blocks, hidden 768, ~124 M parameters."""
    cfg = GPT2Config()
    units: list[Module] = [GPT2Embeddings(cfg)]
    units += [GPT2Block(cfg, i) for i in range(cfg.num_layers)]
    units.append(GPT2LMHead(cfg))
    return SegmentedModel("gpt2-small", units, input_dtype=INT64)
