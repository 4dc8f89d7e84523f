"""BERT-base and RoBERTa-base encoder stacks.

The architectures follow the HuggingFace implementations the paper trains
(``bert-base-uncased``: 110 M parameters; ``roberta-base``: 125 M — the
difference is almost entirely the vocabulary size).  Each of the 12 encoder
blocks is a checkpointable unit, matching how Mimose wraps HuggingFace
encoders with ``torch.utils.checkpoint``.
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
    Tanh,
    Transpose,
)
from repro.models.base import SegmentedModel
from repro.tensorsim.dtypes import FLOAT16, FLOAT32, INT64
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True)
class BertConfig:
    """Hyper-parameters of a BERT-family encoder."""

    vocab_size: int = 30522
    hidden_size: int = 768
    num_layers: int = 12
    num_heads: int = 12
    intermediate_size: int = 3072
    max_position_embeddings: int = 512
    type_vocab_size: int = 2
    dropout: float = 0.1
    num_labels: int = 2
    #: mixed-precision training: activations in fp16, halving their bytes
    amp: bool = False

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


class BertEmbeddings(Module):
    """Word + position + token-type embeddings, LayerNorm, dropout."""

    def __init__(self, cfg: BertConfig, name: str = "embeddings") -> None:
        super().__init__(name, checkpointable=False)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        if x.dtype.is_floating or x.ndim != 2:
            raise ValueError(f"expected integer (batch, seqlen) ids, got {x}")
        act = FLOAT16 if cfg.amp else FLOAT32
        h = ctx.op(
            Embedding(cfg.vocab_size, cfg.hidden_size, out_dtype=act),
            x,
            name="word_emb",
        )
        pos = ctx.op(
            Embedding(cfg.max_position_embeddings, cfg.hidden_size, out_dtype=act),
            x,
            name="pos_emb",
        )
        typ = ctx.op(
            Embedding(cfg.type_vocab_size, cfg.hidden_size, out_dtype=act),
            x,
            name="type_emb",
        )
        h = ctx.op(Add(), h, pos, name="add_pos")
        h = ctx.op(Add(), h, typ, name="add_type")
        h = ctx.op(LayerNorm(cfg.hidden_size), h, name="ln")
        h = ctx.op(Dropout(cfg.dropout), h, name="drop")
        return h


class BertSelfAttention(Module):
    """Multi-head self-attention with the quadratic score tensors."""

    def __init__(self, cfg: BertConfig, name: str = "attn") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        b, length, hidden = x.shape
        heads, dim = cfg.num_heads, cfg.head_dim

        def split_heads(t: TensorSpec, tag: str) -> TensorSpec:
            t = ctx.op(Reshape((b, length, heads, dim)), t, name=f"{tag}_split")
            return ctx.op(Transpose(1, 2), t, name=f"{tag}_perm")

        q = split_heads(ctx.op(Linear(hidden, hidden), x, name="q_proj"), "q")
        k = split_heads(ctx.op(Linear(hidden, hidden), x, name="k_proj"), "k")
        v = split_heads(ctx.op(Linear(hidden, hidden), x, name="v_proj"), "v")

        scores = ctx.op(BatchMatMul(transpose_b=True), q, k, name="qk")
        scores = ctx.op(Scale(1.0 / dim**0.5), scores, name="scale")
        probs = ctx.op(Softmax(), scores, name="softmax")
        probs = ctx.op(Dropout(cfg.dropout), probs, name="attn_drop")
        context = ctx.op(BatchMatMul(), probs, v, name="pv")
        context = ctx.op(Transpose(1, 2), context, name="merge_perm")
        context = ctx.op(Reshape((b, length, hidden)), context, name="merge")

        out = ctx.op(Linear(hidden, hidden), context, name="out_proj")
        out = ctx.op(Dropout(cfg.dropout), out, name="out_drop")
        out = ctx.op(Add(), out, x, name="residual")
        out = ctx.op(LayerNorm(hidden), out, name="ln")
        return out


class BertFFN(Module):
    """Position-wise feed-forward block (768 -> 3072 -> 768)."""

    def __init__(self, cfg: BertConfig, name: str = "ffn") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        h = ctx.op(
            Linear(cfg.hidden_size, cfg.intermediate_size), x, name="up"
        )
        h = ctx.op(Gelu(), h, name="gelu")
        h = ctx.op(
            Linear(cfg.intermediate_size, cfg.hidden_size), h, name="down"
        )
        h = ctx.op(Dropout(cfg.dropout), h, name="drop")
        h = ctx.op(Add(), h, x, name="residual")
        h = ctx.op(LayerNorm(cfg.hidden_size), h, name="ln")
        return h


class BertEncoderLayer(Module):
    """One transformer encoder block — the checkpointable unit."""

    def __init__(self, cfg: BertConfig, index: int) -> None:
        super().__init__(f"encoder.{index}", checkpointable=True, twin_key=cfg)
        self.attn = BertSelfAttention(cfg)
        self.ffn = BertFFN(cfg)

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        x = ctx.module(self.attn, x)
        x = ctx.module(self.ffn, x)
        return x


class BertClassifierHead(Module):
    """Pooler + task head (classification / multiple choice / QA)."""

    def __init__(self, cfg: BertConfig, name: str = "head") -> None:
        super().__init__(name, checkpointable=False)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        b, _length, hidden = x.shape
        pooled = TensorSpec((b, hidden), x.dtype)  # [CLS] token slice (a view)
        pooled = ctx.op(Linear(hidden, hidden), pooled, name="pooler")
        pooled = ctx.op(Tanh(), pooled, name="pooler_act")
        logits = ctx.op(Linear(hidden, cfg.num_labels), pooled, name="classifier")
        return logits


def _build(cfg: BertConfig, name: str) -> SegmentedModel:
    units: list[Module] = [BertEmbeddings(cfg)]
    units += [BertEncoderLayer(cfg, i) for i in range(cfg.num_layers)]
    units.append(BertClassifierHead(cfg))
    return SegmentedModel(name, units, input_dtype=INT64, amp=cfg.amp)


def build_bert_base(num_labels: int = 2, *, amp: bool = False) -> SegmentedModel:
    """BERT-base-uncased: 12 layers, hidden 768, ~110 M parameters."""
    cfg = BertConfig(num_labels=num_labels, amp=amp)
    return _build(cfg, "bert-base-amp" if amp else "bert-base")


def build_roberta_base(num_labels: int = 2, *, amp: bool = False) -> SegmentedModel:
    """RoBERTa-base: BERT architecture with a 50 k vocabulary, ~125 M params."""
    cfg = BertConfig(
        vocab_size=50265,
        max_position_embeddings=514,
        type_vocab_size=1,
        num_labels=num_labels,
        amp=amp,
    )
    return _build(cfg, "roberta-base-amp" if amp else "roberta-base")
