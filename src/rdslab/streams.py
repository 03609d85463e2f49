"""Splittable deterministic random streams.

Each (seed, stream_id) pair names an independent Philox counter-based
stream; trials never share a stream, they each get their own stream_id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeededStream", "as_generator"]


@dataclass(frozen=True)
class SeededStream:
    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "SeededStream":
        """Derive a child stream; distinct indices are independent."""
        # Stream ids are combined injectively so nested substreams of
        # different parents never collide.
        return SeededStream(self.seed, self.stream_id * 1_000_003 + index + 1)


def as_generator(seed) -> np.random.Generator:
    """The generator named by an int seed (stream 0), a :class:`SeededStream`
    (positioned at its start) or a ``Generator`` (returned as is)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return (seed if isinstance(seed, SeededStream) else SeededStream(seed)).generator()
