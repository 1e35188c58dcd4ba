"""Counter-based derivation of independent random substreams.

Every replicate draws from ``substream(seed, cell_index, replicate_index)``'s
stream, so results do not depend on scheduling: serial and parallel runs of
the same config and seed produce identical streams.

The harness draws it through ``_PureSubstream(seed, *key)``, which derives
numpy's ``SeedSequence`` pool, ``generate_state(4, uint64)`` and the PCG64
seeding in Python ints, and draws each double as ``Generator.random`` does:
one step of the 128-bit LCG, the XSL-RR output word w, then
``(w >> 11) * 2**-53``.  A double costs 0.6-1.0 µs there against 50-60 ns
through numpy, so a run of short walks drawn there skips numpy's 70-120 ms
import.  Once the process has drawn ``_PURE_DRAWS`` doubles in Python, once
numpy is loaded, or at the first ``Generator`` method the class lacks
(``choice``), the stream imports numpy, sets a ``PCG64`` to its own state
and increment, and goes on through numpy's ``Generator``; a stream made
while numpy is loaded is numpy's from the start.  The draws are the same.
"""

from __future__ import annotations

import sys
from array import array
from operator import index as as_index
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK32 = (1 << 32) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: its pool of 4 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# doubles a process draws in Python before its streams hand over to numpy,
# about 15 ms of drawing, and those drawn so far.  The count is the
# process's, not a stream's, so a run of many long walks pays at most this
# much Python drawing on top of numpy's import; 20 walks of about 100 steps
# stay far below it
_PURE_DRAWS = 2**14
_pure_drawn = 0


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (seed, key...); same arguments, same stream."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def numpy_loaded() -> bool:
    """Whether this process has imported numpy.  A code path with a
    pure-Python form takes it only while this is False."""
    return "numpy" in sys.modules


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    as ``SeedSequence`` splits its entropy and each spawn key; [0] for 0."""
    n = as_index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_state(seed: int, key: tuple[int, ...]) -> tuple[int, int]:
    """The (state, increment) of numpy's PCG64 seeded by
    ``SeedSequence(seed, spawn_key=key)``."""
    entropy = _words(seed)
    spawn = [w for k in key for w in _words(k)]
    if spawn:  # the seed's words are padded to the pool before a spawn key
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycling the pool, paired little-endian
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    w = [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]
    # PCG64's srandom: state 0, a step, add the seed, a step
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    return state, inc


class _PureSubstream:
    """``substream(seed, *key)``'s stream, its doubles drawn in Python until
    numpy takes over (see the module docstring).  ``random()`` returns a float
    and ``random(k)`` an ``array('d')`` of k doubles, or numpy's array once
    the stream has handed over; both have ``tolist``."""

    __slots__ = ("_state", "_inc", "_numpy")

    def __init__(self, seed: int, *key: int):
        # made once numpy is loaded, it is numpy's stream from the start,
        # which spares it the seeding in Python and a handover (~45 µs)
        self._numpy = substream(seed, *key) if numpy_loaded() else None
        if self._numpy is None:
            self._state, self._inc = _seed_state(seed, key)

    def random(self, size: int | None = None):
        global _pure_drawn
        if self._numpy is not None:
            return self._numpy.random(size)
        k = 1 if size is None else size
        n = 0 if numpy_loaded() else max(0, min(k, _PURE_DRAWS - _pure_drawn))
        _pure_drawn += n
        block = array("d", self._doubles(n))
        if n < k:  # the rest of the block, through numpy from this state
            block.frombytes(self._hand_over().random(k - n).tobytes())
        return block[0] if size is None else block

    def __getattr__(self, name: str):
        """Another ``Generator`` attribute: numpy's, from this state."""
        if name.startswith("_"):  # an unset slot, or a special method
            raise AttributeError(name)
        return getattr(self._numpy or self._hand_over(), name)

    def _doubles(self, n: int) -> list[float]:
        """The next ``n`` doubles: per LCG step, the top 53 bits of the
        XSL-RR word over 2**53.  That word is x = hi ^ lo of the state,
        rotated right by the state's top 6 bits r, so its top 53 bits are
        bits r + 11 to r + 63 of x written twice over 128 bits."""
        state, inc = self._state, self._inc
        out = []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            out.append(((x << 64 | x) >> ((state >> 122) + 11) & _MASK53) * 2.0**-53)
        self._state = state
        return out

    def _hand_over(self) -> np.random.Generator:
        """numpy's Generator, its PCG64 set to this stream's state."""
        import numpy as np

        bits = np.random.PCG64(0)
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": self._state, "inc": self._inc},
                      "has_uint32": 0, "uinteger": 0}
        self._numpy = np.random.Generator(bits)
        return self._numpy
