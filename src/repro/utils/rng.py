"""Deterministic random-number streams for reproducible simulations.

Each logical actor in the simulator (traffic source per node, the VC
allocator, the link arbiters) draws from its own named stream so that
changing one component's consumption pattern does not perturb the others —
the standard "independent streams" discipline for discrete-event
simulation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_generator", "RngStreams", "StreamBank"]

_MASK32 = 0xFFFFFFFF


def _material(seed: int | None, key: tuple) -> list[int]:
    """The 32-bit entropy words of ``(seed, *key)``.

    String components are hashed stably (FNV-1a) so stream identity does not
    depend on Python's randomized ``hash``.
    """
    material: list[int] = [0 if seed is None else int(seed) & _MASK32]
    for part in key:
        if isinstance(part, str):
            acc = 0x811C9DC5
            for ch in part.encode():
                acc = ((acc ^ ch) * 0x01000193) & _MASK32
            material.append(acc)
        else:
            material.append(int(part) & _MASK32)
    return material


def spawn_generator(seed: int | None, *key: int | str) -> np.random.Generator:
    """Create a generator keyed by ``seed`` plus a structured key."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_material(seed, key)))
    )


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """Philox keys of many entropy rows at once, shape ``(n, 2)`` uint64.

    Row ``i`` gets ``SeedSequence(words[i]).generate_state(2, np.uint64)``,
    the key ``Philox(SeedSequence(words[i]))`` starts from: numpy's
    SeedSequence hash (pool size 4, no spawn key), with the per-row
    arithmetic vectorised.  Every word must be below 2**32.
    """
    words = np.asarray(words, dtype=np.uint64)
    n, width = words.shape
    hash_const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ (value >> 16)

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(words[:, i] if i < width else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const = 0x8B51F9DD
    out = []
    for value in pool:
        value = value ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=1)


class StreamBank:
    """Many independent Philox streams multiplexed onto one Generator.

    Stream ``i`` draws exactly what ``spawn_generator(*streams[i])`` would
    draw, but the bank keeps one :class:`numpy.random.Generator` and a
    table of saved Philox states rather than one Generator per stream.
    A batched simulation needs two streams per node per replication; as
    separate Generators (each with its bit generator, lock and
    SeedSequence) they cost ~30 us apiece to seed and crowd the garbage
    collector's long-lived generation, so a large batch's full
    collections are paid again by everything else in the process.

    ``select(i)`` returns the shared Generator positioned on stream ``i``;
    draws through it advance only that stream until the next ``select``
    of another stream.  Anything that keeps the Generator (an arrival
    process) must be selected before each of its draws.
    """

    def __init__(self, streams: list[tuple]):
        words = np.array(
            [_material(seed, tuple(key)) for seed, *key in streams], dtype=np.uint64
        )
        keys = _philox_keys(words.reshape(len(streams), -1))
        # Saved Philox states, one entry per stream (ndarrays are not
        # tracked by the garbage collector; the setter copies them).
        self._key = list(keys)
        fresh = np.zeros(4, dtype=np.uint64)
        self._counter = [fresh] * len(streams)
        self._buffer = [fresh] * len(streams)
        self._buffer_pos = [4] * len(streams)  # 4 = empty buffer
        self._has_uint32 = [0] * len(streams)
        self._uinteger = [0] * len(streams)
        self.generator = np.random.Generator(np.random.Philox(key=keys[0]))
        self._current = 0

    def select(self, i: int) -> np.random.Generator:
        """The shared Generator, positioned on stream ``i``."""
        if i != self._current:
            bitgen = self.generator.bit_generator
            j = self._current
            state = bitgen.state
            self._counter[j] = state["state"]["counter"]
            self._buffer[j] = state["buffer"]
            self._buffer_pos[j] = state["buffer_pos"]
            self._has_uint32[j] = state["has_uint32"]
            self._uinteger[j] = state["uinteger"]
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": self._counter[i], "key": self._key[i]},
                "buffer": self._buffer[i],
                "buffer_pos": self._buffer_pos[i],
                "has_uint32": self._has_uint32[i],
                "uinteger": self._uinteger[i],
            }
            self._current = i
        return self.generator


class RngStreams:
    """A family of independent, reproducible random streams.

    Parameters
    ----------
    seed:
        Master seed. ``None`` selects OS entropy (irreproducible runs are
        allowed but discouraged; all experiment drivers pass explicit
        seeds).
    """

    def __init__(self, seed: int | None = 0):
        self.seed = seed
        self._cache: dict[tuple, np.random.Generator] = {}

    def get(self, *key: int | str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``key``."""
        if key not in self._cache:
            self._cache[key] = spawn_generator(self.seed, *key)
        return self._cache[key]

    def traffic(self, node: int) -> np.random.Generator:
        """Stream that drives message generation at ``node``."""
        return self.get("traffic", node)

    def dest(self, node: int) -> np.random.Generator:
        """Stream that draws message destinations at ``node``.

        The object engine interleaves destination draws on the per-node
        :meth:`traffic` stream (historical layout); the array backend
        separates them onto this stream so arrival instants and
        destinations can be block-drawn independently.
        """
        return self.get("dest", node)

    def allocator(self) -> np.random.Generator:
        """Stream used by the header VC-allocation tie-breaker."""
        return self.get("allocator")

    def arbiter(self) -> np.random.Generator:
        """Stream used by per-link round-robin offset randomisation."""
        return self.get("arbiter")
