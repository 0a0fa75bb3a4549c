"""I/O behaviour prediction from repetitive structure (Omnisc'IO-style).

Dorier et al.'s Omnisc'IO [55] "uses formal grammars to predict I/O
behaviors in HPC": it learns the repetitive structure of an application's
I/O stream online and predicts *what* the next operation will be and
*where* it will land, enabling prefetching and scheduling decisions.

This module reproduces that capability with an order-``k`` context model
with escape to shorter contexts (PPM-style) rather than a Sequitur
grammar: both learn the stream's repetitive structure online; the context
model is the simpler estimator with the same observable behaviour on the
paper's claim -- near-perfect next-op prediction on structured streams
(checkpoint loops), chance-level on shuffled streams (DL training reads).

Two layers:

* :class:`ContextModel` -- a generic online next-symbol predictor over any
  hashable alphabet.
* :class:`OpPredictor` -- applies it to :class:`~repro.ops.IOOp` streams:
  symbols are (kind, path, size) classes, and per-symbol offset deltas are
  tracked so the predictor emits a concrete (kind, path, offset, nbytes)
  prediction -- what a prefetcher needs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.ops import IOOp, OpKind


class ContextModel:
    """Online order-``k`` next-symbol predictor with escape.

    For each context length from ``order`` down to 0, the model keeps
    counts of the next symbol seen after that context; prediction uses the
    longest context with any history (longest-match escape).

    Parameters
    ----------
    order:
        Maximum context length.
    """

    def __init__(self, order: int = 3):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        #: counts[k][context_tuple][next_symbol] -> occurrences
        self._counts: List[Dict[tuple, Counter]] = [
            defaultdict(Counter) for _ in range(order + 1)
        ]
        self._history: List[Hashable] = []
        self.observed = 0

    def observe(self, symbol: Hashable) -> None:
        """Feed one symbol (updates every context order)."""
        h = self._history
        for k in range(min(self.order, len(h)) + 1):
            ctx = tuple(h[len(h) - k :])
            self._counts[k][ctx][symbol] += 1
        h.append(symbol)
        if len(h) > self.order:
            del h[: len(h) - self.order]
        self.observed += 1

    def predict(self) -> Optional[Hashable]:
        """Most likely next symbol (longest matching context wins)."""
        h = self._history
        for k in range(min(self.order, len(h)), -1, -1):
            ctx = tuple(h[len(h) - k :])
            counter = self._counts[k].get(ctx)
            if counter:
                return counter.most_common(1)[0][0]
        return None

    def evaluate(self, symbols: Sequence[Hashable]) -> float:
        """Online accuracy: fraction of symbols predicted before observing.

        The model both predicts and learns as it scans the sequence --
        Omnisc'IO's deployment mode.
        """
        symbols = list(symbols)
        if not symbols:
            raise ValueError("cannot evaluate on an empty sequence")
        hits = 0
        for sym in symbols:
            if self.predict() == sym:
                hits += 1
            self.observe(sym)
        return hits / len(symbols)


@dataclass(frozen=True)
class OpPrediction:
    """A concrete predicted next operation."""

    kind: OpKind
    path: str
    offset: int
    nbytes: int


def _op_symbol(op: IOOp) -> tuple:
    """The symbol class of an op: identity minus the offset."""
    return (op.kind.value, op.path, op.nbytes)


class OpPredictor:
    """Next-I/O-operation predictor over op streams.

    Wraps a :class:`ContextModel` over op symbol classes and tracks, per
    symbol, the last offset and the modal offset *delta*, so a symbol
    prediction becomes a concrete byte-range prediction (the input a
    prefetcher or burst scheduler needs).
    """

    def __init__(self, order: int = 3):
        self.model = ContextModel(order=order)
        self._last_offset: Dict[tuple, int] = {}
        self._delta_counts: Dict[tuple, Counter] = defaultdict(Counter)

    def observe(self, op: IOOp) -> None:
        sym = _op_symbol(op)
        last = self._last_offset.get(sym)
        if last is not None:
            self._delta_counts[sym][op.offset - last] += 1
        self._last_offset[sym] = op.offset
        self.model.observe(sym)

    def predict(self) -> Optional[OpPrediction]:
        """Predict the next operation, or None before any history."""
        sym = self.model.predict()
        if sym is None:
            return None
        kind_value, path, nbytes = sym
        last = self._last_offset.get(sym, 0)
        deltas = self._delta_counts.get(sym)
        delta = deltas.most_common(1)[0][0] if deltas else nbytes
        return OpPrediction(
            kind=OpKind(kind_value),
            path=path,
            offset=max(0, last + delta),
            nbytes=nbytes,
        )

    def evaluate(
        self, ops: Sequence[IOOp], require_offset: bool = False
    ) -> Tuple[float, float]:
        """Online (symbol accuracy, exact-op accuracy) over a stream.

        ``exact`` additionally requires the predicted offset to match --
        the prefetching-grade prediction Omnisc'IO targets.
        """
        ops = [op for op in ops if not op.kind.is_marker]
        if not ops:
            raise ValueError("no I/O operations to evaluate on")
        sym_hits = 0
        exact_hits = 0
        for op in ops:
            pred = self.predict()
            if pred is not None:
                if (pred.kind, pred.path, pred.nbytes) == (
                    op.kind, op.path, op.nbytes
                ):
                    sym_hits += 1
                    if pred.offset == op.offset:
                        exact_hits += 1
            self.observe(op)
        n = len(ops)
        return sym_hits / n, exact_hits / n
