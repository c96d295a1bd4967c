"""Encoder assembly: embeddings, the cascaded stacks, and output combination.

Four encoder kinds share one class: a pure self-attention stack, two pure
recurrent stacks (plain and ordered-gate cells), and the cascade that runs the
recurrent stack first and self-attention on top of its states. The cascade can
finish with a parameter-free elementwise sum of the two stack outputs; that
combination is the whole point of the short-cut flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import SanEncoder
from .errors import ConfigError, DataError
from .rng import SeedStreams
from .recurrent import RecurrentEncoder
from .tensor import (
    Tensor,
    add,
    default_dtype,
    dropout,
    gather_rows,
    scale,
    stack_steps,
)

ENCODER_KINDS = ("san", "lstm", "onlstm", "hybrid")


@dataclass
class EncoderConfig:
    """Everything needed to build one encoder.

    K is `recurrent_layers`, L is `attention_layers`; pure kinds must zero the
    stack they do not use, and the hybrid needs at least one layer of each.
    """

    kind: str
    vocab_size: int
    d: int = 256
    recurrent_layers: int = 0
    attention_layers: int = 0
    heads: int = 4
    d_ff: int = 1024
    chunk: int = 16
    dropout: float = 0.0
    use_positional: bool = False
    use_short_cut: bool = False

    def validate(self) -> None:
        k, l = self.recurrent_layers, self.attention_layers
        if self.kind not in ENCODER_KINDS:
            raise ConfigError(f"kind must be one of {ENCODER_KINDS}, got {self.kind!r}")
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.d < 1:
            raise ConfigError(f"model dim must be positive, got {self.d}")
        if self.kind == "san" and (k != 0 or l < 1):
            raise ConfigError(f"kind=san requires recurrent_layers=0 and attention_layers>=1, got K={k}, L={l}")
        if self.kind in ("lstm", "onlstm") and (l != 0 or k < 1):
            raise ConfigError(f"kind={self.kind} requires attention_layers=0 and recurrent_layers>=1, got K={k}, L={l}")
        if self.kind == "hybrid" and (k < 1 or l < 1):
            raise ConfigError(f"kind=hybrid requires at least one layer of each stack, got K={k}, L={l}")
        if self.kind != "hybrid" and self.use_short_cut:
            raise ConfigError("use_short_cut only applies to kind=hybrid")
        if self.kind in ("lstm", "onlstm") and self.use_positional:
            raise ConfigError("use_positional needs an attention stack")
        if l >= 1:
            if self.heads < 1 or self.d % self.heads != 0:
                raise ConfigError(f"heads ({self.heads}) must divide model dim ({self.d})")
            if self.d_ff < self.d:
                raise ConfigError(f"d_ff ({self.d_ff}) must be at least model dim ({self.d})")
        if self.kind in ("onlstm", "hybrid"):
            if self.chunk < 1 or self.d % self.chunk != 0:
                raise ConfigError(f"chunk ({self.chunk}) must be a positive divisor of model dim ({self.d})")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class EncoderOutput:
    """seq is what downstream consumers read; the stack outputs stay inspectable."""

    seq: Tensor
    last_hidden: Tensor | None = None
    h_rnn: Tensor | None = None
    h_san: Tensor | None = None


def short_cut_combine(h_rnn: Tensor, h_san: Tensor) -> Tensor:
    """Parameter-free elementwise sum of the two stack outputs."""
    return add(h_rnn, h_san)


class Encoder:
    """Token ids in, contextual states out, per the configured stack layout."""

    def __init__(self, config: EncoderConfig, streams: SeedStreams):
        config.validate()
        self.config = config
        dt = default_dtype()
        emb_rng = streams.stream("init", "embedding")
        s = 1.0 / np.sqrt(config.d)
        self.embedding = Tensor(
            emb_rng.uniform(-s, s, (config.vocab_size, config.d)).astype(dt),
            requires_grad=True,
        )
        self.rnn: RecurrentEncoder | None = None
        self.san: SanEncoder | None = None
        if config.recurrent_layers >= 1:
            self.rnn = RecurrentEncoder(
                "lstm" if config.kind == "lstm" else "onlstm",
                config.recurrent_layers,
                config.d,
                config.d,
                streams.stream("init", "rnn"),
                chunk=config.chunk,
                dropout_rate=config.dropout,
            )
        if config.attention_layers >= 1:
            self.san = SanEncoder(
                config.attention_layers,
                config.d,
                config.heads,
                config.d_ff,
                streams.stream("init", "san"),
                dropout_rate=config.dropout,
                use_positional=config.use_positional,
            )

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {f"{prefix}embedding": self.embedding}
        if self.rnn is not None:
            out.update(self.rnn.parameters(f"{prefix}rnn."))
        if self.san is not None:
            out.update(self.san.parameters(f"{prefix}san."))
        return out

    def _embed_step(self, ids: np.ndarray, t: int) -> Tensor:
        return scale(gather_rows(self.embedding, ids[:, t]), np.sqrt(self.config.d))

    def _embed_seq(self, ids: np.ndarray) -> Tensor:
        return scale(gather_rows(self.embedding, ids), np.sqrt(self.config.d))

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise DataError(f"token ids must be (batch, N>=1), got shape {ids.shape}")
        return ids

    def _run_rnn(self, steps, mask, training, rng, trace):
        # The per-step outputs die with this frame, before the attention
        # stack runs; only their stacked copy stays alive.
        out_steps, last = self.rnn(
            steps, mask=mask, training=training, rng=rng, trace=trace
        )
        return stack_steps(out_steps), last

    def __call__(
        self,
        ids: np.ndarray,
        mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        trace: dict[int, list] | None = None,
    ) -> EncoderOutput:
        ids = self._check_ids(ids)
        cfg = self.config
        if cfg.kind == "san":
            h_san = self.san(self._embed_seq(ids), mask=mask, training=training, rng=rng)
            return EncoderOutput(seq=h_san, h_san=h_san)
        emb_steps = [self._embed_step(ids, t) for t in range(ids.shape[1])]
        if training and cfg.dropout > 0:
            emb_steps = [dropout(s, cfg.dropout, True, rng) for s in emb_steps]
        h_rnn, last = self._run_rnn(emb_steps, mask, training, rng, trace)
        if cfg.kind in ("lstm", "onlstm"):
            return EncoderOutput(seq=h_rnn, last_hidden=last, h_rnn=h_rnn)
        h_san = self.san(h_rnn, mask=mask, training=training, rng=rng)
        seq = short_cut_combine(h_rnn, h_san) if cfg.use_short_cut else h_san
        return EncoderOutput(seq=seq, last_hidden=last, h_rnn=h_rnn, h_san=h_san)


def parameter_count(params: dict[str, Tensor]) -> int:
    return sum(p.size for p in params.values())
