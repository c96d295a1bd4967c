"""Encoder assembly: embeddings, the cascaded stacks, and output combination.

Four encoder kinds share one class: a pure self-attention stack, two pure
recurrent stacks (plain and ordered-gate cells), and the cascade that runs the
recurrent stack first and self-attention on top of its states. The cascade can
finish with a parameter-free elementwise sum of the two stack outputs; that
combination is the whole point of the short-cut flag. Past validation, the
kind only picks the cell; the rest follows from which stacks exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import SanEncoder, sinusoidal_positions
from .errors import ConfigError, DataError
from .logic import VOCAB
from .rng import NoDraws, SeedStreams
from .recurrent import RecurrentEncoder
from .tensor import (
    Module,
    Packing,
    Tensor,
    add,
    constant,
    dropout,
    gather_rows,
    scale,
    uniform_parameter,
)

ENCODER_KINDS = ("san", "lstm", "onlstm", "hybrid")


@dataclass(frozen=True)
class EncoderConfig:
    """Everything needed to build one encoder.

    K is `recurrent_layers`, L is `attention_layers`; pure kinds must zero the
    stack they do not use, and the hybrid needs at least one layer of each.
    An invalid config raises ConfigError on construction, and a valid one
    cannot be changed (`dataclasses.replace` builds, and checks, a new one).
    """

    kind: str
    d: int = 256
    recurrent_layers: int = 0
    attention_layers: int = 0
    heads: int = 4
    d_ff: int = 1024
    chunk: int = 16
    dropout: float = 0.0
    use_short_cut: bool = False

    def __post_init__(self) -> None:
        k, l = self.recurrent_layers, self.attention_layers
        if self.kind not in ENCODER_KINDS:
            raise ConfigError(f"kind must be one of {ENCODER_KINDS}, got {self.kind!r}")
        if self.d < 1:
            raise ConfigError(f"model dim must be positive, got {self.d}")
        if self.kind == "san" and self.d % 2:
            raise ConfigError(f"kind=san needs an even model dim for sinusoidal positions, got {self.d}")
        if self.kind == "san" and (k != 0 or l < 1):
            raise ConfigError(f"kind=san requires recurrent_layers=0 and attention_layers>=1, got K={k}, L={l}")
        if self.kind in ("lstm", "onlstm") and (l != 0 or k < 1):
            raise ConfigError(f"kind={self.kind} requires attention_layers=0 and recurrent_layers>=1, got K={k}, L={l}")
        if self.kind == "hybrid" and (k < 1 or l < 1):
            raise ConfigError(f"kind=hybrid requires at least one layer of each stack, got K={k}, L={l}")
        if self.kind != "hybrid" and self.use_short_cut:
            raise ConfigError("use_short_cut only applies to kind=hybrid")
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


class Encoder(Module):
    """Token ids in, contextual states out, per the configured stack layout."""

    def __init__(self, config: EncoderConfig, streams: SeedStreams | NoDraws):
        self.config = config
        self.embedding = uniform_parameter(
            streams.stream("init", "embedding"), 1.0 / np.sqrt(config.d), len(VOCAB), config.d
        )
        self.rnn: RecurrentEncoder | None = None
        self.san: SanEncoder | None = None
        if config.recurrent_layers >= 1:
            self.rnn = RecurrentEncoder(
                config.recurrent_layers,
                config.d,
                config.d,
                streams.stream("init", "rnn"),
                chunk=None if config.kind == "lstm" else config.chunk,
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
            )

    def _embed_seq(self, ids: np.ndarray) -> Tensor:
        """Scaled embeddings, shaped like `ids` plus a trailing d."""
        return scale(gather_rows(self.embedding, ids), np.sqrt(self.config.d))

    def __call__(
        self,
        ids: np.ndarray,
        packing: Packing | None = None,
        rng: np.random.Generator | None = None,
        trace: dict[int, list] | None = None,
    ) -> Tensor:
        """Encode (batch, N) token ids to packed (T, d) rows, one per real token.

        `packing` marks the real tokens (see `tensor.Packing`); without one,
        every token is real. The rows follow the packing's order. Dropout
        draws from `rng` when one is given (training). Without a recurrent
        stack, sinusoidal positions are added to the embeddings.
        """
        ids = np.asarray(ids)
        packing = Packing(np.ones(ids.shape)) if packing is None else packing
        if ids.shape != packing.shape:
            raise DataError(f"token ids {ids.shape} do not match the packing's {packing.shape} batch")
        cfg = self.config
        h = self._embed_seq(ids.reshape(-1)[packing.index])
        if self.rnn is None:
            pos = sinusoidal_positions(packing.shape[1], cfg.d).astype(h.dtype)
            h = add(h, constant(pos[packing.steps]))
        else:
            h = self.rnn(dropout(h, cfg.dropout, rng), packing, rng=rng, trace=trace)
        if self.san is None:
            return h
        h_san = self.san(h, packing, rng=rng)
        return add(h, h_san) if cfg.use_short_cut else h_san
