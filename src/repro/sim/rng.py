"""Seeded randomness for simulations.

All stochastic behaviour (barrier-entry skew, packet-loss injection,
workload jitter) flows through a :class:`SimRng` so that every experiment is
reproducible from a single integer seed.  Independent named streams keep
unrelated random decisions decoupled: adding loss injection must not change
the skew sequence.

Each named stream is a PCG64 generator (128-bit LCG state, XSL-RR 64-bit
output) seeded from ``(seed, name)`` by the SeedSequence hash, with the
name's UTF-8 bytes as the spawn key.  ``random``, ``uniform`` and
``integers`` reproduce the reference PCG64 ``Generator`` draw for draw
(``tests/test_rng_parity.py``).  The seed derivation is a pure function of ``(seed, name)`` and is memoized, because many clusters
of one experiment derive the same streams.
"""

from __future__ import annotations

from functools import lru_cache

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence hash constants (O'Neill's seed_seq_fe, 4-word pool).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_WORD = (1 << 64) | 1
_MASK53 = (1 << 53) - 1
_TWO_POW_MINUS_53 = 2.0 ** -53


def _uint32_words(n: int) -> list:
    """``n`` as little-endian 32-bit words (``[0]`` for zero)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    if n == 0:
        return [0]
    words = []
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=4096)
def _seed_words(seed: int, name: str) -> tuple:
    """The four 64-bit PCG64 seeding words for stream ``name`` of ``seed``.

    SeedSequence(seed, spawn_key=name's UTF-8 bytes).generate_state(4,
    uint64): hash the entropy words into a 4-word pool, then hash the pool
    out into 8 32-bit words paired little-endian.
    """
    entropy = _uint32_words(seed)
    spawn = list(name.encode("utf-8"))
    if spawn and len(entropy) < _POOL_SIZE:
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0)
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return tuple(out[i] | out[i + 1] << 32 for i in range(0, len(out), 2))


class RngStream:
    """One PCG64 stream, drawing as the reference ``Generator`` does.

    ``words`` are the four 64-bit seeding words (initial state high/low,
    then sequence high/low), as ``SeedSequence.generate_state(4, uint64)``
    returns them.
    """

    __slots__ = ("_state", "_inc", "_buffered32")

    def __init__(self, words: tuple) -> None:
        w0, w1, w2, w3 = words
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        # state = 0; step; state += initial state; step.
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._buffered32 = None

    def next64(self) -> int:
        """The next raw 64-bit output: step the LCG, then XSL-RR."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        hi = state >> 64
        x = (hi ^ state) & _MASK64
        # Rotate right by the top 6 bits: shift the word written twice.
        return ((x * _DOUBLE_WORD) >> (hi >> 58)) & _MASK64

    def next32(self) -> int:
        """A 32-bit output: the low half of a fresh 64-bit draw, then the
        buffered high half on the next call."""
        buffered = self._buffered32
        if buffered is not None:
            self._buffered32 = None
            return buffered
        x = self.next64()
        self._buffered32 = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of ``next64()``."""
        # next64 inlined: this is the draw loss injection makes per packet.
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        hi = state >> 64
        x = (hi ^ state) & _MASK64
        return (
            ((x * _DOUBLE_WORD) >> ((hi >> 58) + 11)) & _MASK53
        ) * _TWO_POW_MINUS_53

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        low = float(low)
        return low + (float(high) - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """Integer in [low, high) as an int64 draw: Lemire's rejection on a
        32-bit output when the range fits, else on a 64-bit one."""
        low, high = int(low), int(high)
        if low >= high:
            raise ValueError("low >= high")
        if low < -(1 << 63) or high > 1 << 63:
            raise ValueError("bounds out of range for int64")
        rng = high - low - 1
        if rng == 0:
            return low
        if rng <= _MASK32:
            draw, bits, mask = self.next32, 32, _MASK32
        else:
            draw, bits, mask = self.next64, 64, _MASK64
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)


class _Streams(dict):
    """Stream name -> :class:`RngStream`, each derived on first use."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def __missing__(self, name: str) -> RngStream:
        gen = self[name] = RngStream(_seed_words(self.seed, name))
        return gen


class SimRng:
    """A root seed plus independent named sub-streams.

    ``rng.stream("loss")`` always returns the same generator state sequence
    for a given root seed, regardless of which other streams exist or the
    order in which they are created.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams = _Streams(self.seed)

    def stream(self, name: str) -> RngStream:
        """Get (or create) the independent stream called ``name``."""
        return self._streams[name]

    # Convenience wrappers for the common cases -------------------------
    def uniform(self, stream: str, low: float, high: float) -> float:
        """Uniform float in [low, high) from the named stream."""
        return self._streams[stream].uniform(low, high)

    def random(self, stream: str) -> float:
        """Uniform float in [0, 1)."""
        return self._streams[stream].random()

    def integers(self, stream: str, low: int, high: int) -> int:
        """Integer in [low, high)."""
        return self._streams[stream].integers(low, high)
