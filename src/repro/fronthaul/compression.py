"""Block Floating Point (BFP) compression of U-plane IQ payloads.

Every RAN implementation the paper studied compresses U-plane IQ samples
with BFP at PRB granularity (Section 2.2, Figure 2): the 12 complex samples
of a PRB share one exponent byte, and each I/Q component is stored as an
``iq_width``-bit two's-complement mantissa.  The PRB monitoring middlebox
(Algorithm 1) reads exactly these exponents, and the DAS / RU-sharing
middleboxes must decompress, combine, and recompress them, so this module
implements real bit-accurate BFP with arbitrary mantissa widths.

The wire codec is fully vectorized and works in the samples' own narrow
integer dtype, which is what lets the Python middleboxes approach the
per-packet constant cost of the paper's C implementation (Figure 15b).
Because a PRB holds 24 mantissas and ``24 * width`` is always a multiple
of 8, every PRB's mantissa block is exactly ``3 * width`` bytes and the
whole payload is one strided ``(n_prbs, 1 + 3 * width)`` byte grid — no
per-PRB Python loop anywhere:

- packing left-aligns each mantissa in a big-endian 16-bit word, unpacks
  those words to bits once, keeps the top ``width`` bits of each, and
  packs the result once (:func:`_pack_mantissas`);
- unpacking gathers the (at most) 3 bytes covering each mantissa into a
  32-bit word and extracts it with one shift pair that also
  sign-extends (:func:`_unpack_mantissas`);
- the exponent search is an exact integer OR-reduction per PRB
  (:func:`_exact_bits_needed`).

Repeated identical payloads (RU sharing re-parses the same full-band
uplink packet once per DU) hit a small LRU parse memo instead of
re-running the unpack.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Tuple

import numpy as np

SAMPLES_PER_PRB = 12

#: O-RAN udCompMeth code for block floating point.
BFP_COMP_METH = 1
#: udCompMeth code for uncompressed 16-bit fixed point.
NO_COMP_METH = 0
#: udCompMeth code for modulation compression (O-RAN CUS Annex A.4).
MOD_COMP_METH = 4

#: Largest exponent the 4-bit wire nibble can carry (Figure 2).
MAX_WIRE_EXPONENT = 15


class _LruMemo:
    """Tiny bounded LRU cache for codec results.

    Values must be immutable (ndarrays with ``writeable=False``) because
    they are shared between all callers that present the same payload —
    exactly the RU-sharing demux pattern.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable):
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


#: Parse memo: (config byte, payload bytes) -> (exponents, mantissas).
_PARSE_MEMO = _LruMemo(capacity=128)


def codec_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the parse memo (observability + tests)."""
    return {
        "parse_hits": _PARSE_MEMO.hits,
        "parse_misses": _PARSE_MEMO.misses,
        "parse_entries": len(_PARSE_MEMO),
    }


def clear_codec_memo() -> None:
    """Reset the parse memo (used by benchmarks to measure cold paths)."""
    _PARSE_MEMO.clear()


@dataclass(frozen=True)
class CompressionConfig:
    """Parameters carried in the O-RAN ``udCompHdr`` field.

    ``iq_width`` is the mantissa width in bits (Figure 2 shows width 9);
    ``comp_meth`` selects the scheme.  BFP, modulation compression, and
    uncompressed are implemented — the three wire formats the vendor
    stacks negotiate over M-plane.
    """

    iq_width: int = 9
    comp_meth: int = BFP_COMP_METH

    def __post_init__(self) -> None:
        if self.comp_meth == NO_COMP_METH:
            if self.iq_width not in (0, 16):
                raise ValueError("uncompressed payloads use 16-bit samples")
        elif self.comp_meth == BFP_COMP_METH:
            if not 2 <= self.iq_width <= 16:
                raise ValueError(f"BFP iq_width out of range: {self.iq_width}")
        elif self.comp_meth == MOD_COMP_METH:
            if not 1 <= self.iq_width <= 14:
                raise ValueError(
                    f"modcomp iq_width out of range: {self.iq_width}"
                )
        else:
            raise ValueError(f"unsupported compression method: {self.comp_meth}")

    def to_byte(self) -> int:
        width = 0 if self.iq_width == 16 else self.iq_width
        return ((width & 0xF) << 4) | (self.comp_meth & 0xF)

    @classmethod
    def from_byte(cls, value: int) -> "CompressionConfig":
        width = (value >> 4) & 0xF
        meth = value & 0xF
        if width == 0:
            width = 16
        return cls(iq_width=width, comp_meth=meth)

    def to_dict(self) -> Dict[str, int]:
        """Plain-data form, the exact inverse of :meth:`from_dict`."""
        return {"iq_width": self.iq_width, "comp_meth": self.comp_meth}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompressionConfig":
        """Strict constructor from plain data.

        Unknown keys raise :class:`KeyError` — the same strictness as
        ``ScenarioSpec.from_dict`` — so a typoed ``iq_widht`` in a spec
        fails loudly instead of silently negotiating the default codec.
        """
        unknown = set(data) - {"iq_width", "comp_meth"}
        if unknown:
            raise KeyError(
                f"compression config has unknown keys: {sorted(unknown)}"
            )
        return cls(
            iq_width=int(data.get("iq_width", 9)),
            comp_meth=int(data.get("comp_meth", BFP_COMP_METH)),
        )

    def prb_payload_bytes(self) -> int:
        """Serialized size of one PRB: param byte(s) + packed mantissas."""
        mantissa_bits = 2 * SAMPLES_PER_PRB * self.iq_width
        packed = (mantissa_bits + 7) // 8
        if self.comp_meth == NO_COMP_METH:
            return 2 * SAMPLES_PER_PRB * 2  # int16 I and Q, no exponent
        if self.comp_meth == MOD_COMP_METH:
            return 2 + packed  # csf/scaler param halfword + mantissas
        return 1 + packed


# -- seed per-value bit packers ------------------------------------------------
# The scalar reference that benchmarks/test_micro_ops.py measures the
# codec's speedup floors against; the codec itself uses the helpers below.


def _bit_shifts(width: int) -> np.ndarray:
    """MSB-first bit positions of an ``width``-bit mantissa."""
    return np.arange(width - 1, -1, -1, dtype=np.uint32)


def _pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers < 2**width into a big-endian bitstream."""
    shifts = _bit_shifts(width)
    # Each row holds the bits of one value, MSB first.
    bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1)).tobytes()


def _unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`; returns unsigned integers."""
    needed_bits = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw)[:needed_bits]
    bits = bits.reshape(count, width).astype(np.uint32)
    shifts = _bit_shifts(width)
    return (bits << shifts[None, :]).sum(axis=1)


def _sign_extend(values: np.ndarray, width: int) -> np.ndarray:
    sign_bit = np.uint32(1) << np.uint32(width - 1)
    signed = values.astype(np.int64)
    signed -= (values & sign_bit).astype(np.int64) << 1
    return signed


def _pack_mantissas(mantissas: np.ndarray, width: int) -> np.ndarray:
    """Pack signed ``width``-bit mantissas of shape (n, 24), MSB first.

    Each mantissa is left-aligned in a big-endian 16-bit word, so its
    two's-complement bits are the word's top ``width`` bits; one
    ``np.unpackbits`` over the words, a slice, and one ``np.packbits``
    give the ``(n, 3 * width)`` wire blocks.  Accepts any integer dtype
    and memory layout (the merge path passes strided views).
    """
    n_prbs, n_mantissas = mantissas.shape
    aligned = mantissas.astype(np.int16, copy=False) << (16 - width)
    words = aligned.astype(">i2", order="C")
    bits = np.unpackbits(words.view(np.uint8), axis=1)
    bits = bits.reshape(n_prbs, n_mantissas, 16)[:, :, :width]
    return np.packbits(bits.reshape(n_prbs, n_mantissas * width), axis=1)


@functools.lru_cache(maxsize=None)
def _gather_plan(width: int) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Per-mantissa byte indices and left shifts for one width.

    Mantissa ``i`` starts at bit ``i * width`` of its PRB block and, as
    ``width <= 16``, lies within the 3 bytes from there.  Indices past
    the block are clamped: such a byte holds only bits below the
    mantissa, which the final right shift discards.
    """
    starts = np.arange(2 * SAMPLES_PER_PRB) * width
    first = starts // 8
    last = 3 * width - 1
    cover = tuple(_freeze(np.minimum(first + k, last)) for k in range(3))
    return cover, _freeze((8 + starts % 8).astype(np.uint32))


def _unpack_mantissas(blocks: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_mantissas`: int32 mantissas of shape (n, 24).

    The 3 bytes covering each mantissa form a 24-bit word; shifting it
    left puts the mantissa's MSB at bit 31 of an int32, and an
    arithmetic right shift by ``32 - width`` extracts and sign-extends
    it in one step.
    """
    (b0, b1, b2), lshift = _gather_plan(width)
    wide = blocks.astype(np.uint32)
    words = (wide[:, b0] << 16) | (wide[:, b1] << 8) | wide[:, b2]
    return (words << lshift).view(np.int32) >> np.int32(32 - width)


def _int_samples(samples) -> np.ndarray:
    """``samples`` as a signed-integer array, keeping a narrow dtype."""
    samples = np.asarray(samples)
    if samples.dtype.kind != "i":
        samples = samples.astype(np.int64)
    return samples


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class BfpCompressor:
    """Block Floating Point codec over int16 IQ samples.

    Samples are represented as interleaved I/Q int16 arrays of shape
    ``(n_prbs, 24)`` (12 complex samples per PRB).  ``compress`` yields one
    exponent per PRB plus the packed mantissas; ``decompress`` restores
    samples up to quantization.
    """

    def __init__(self, config: CompressionConfig = CompressionConfig()):
        self.config = config

    # -- array-level API ---------------------------------------------------

    def exponents_for(self, samples: np.ndarray) -> np.ndarray:
        """Per-PRB BFP exponents for int16 samples of shape (n_prbs, 24).

        The exponent is the number of right-shifts needed so the largest
        magnitude in the PRB fits the mantissa width.  Idle PRBs (all
        near-zero samples) get exponent 0 — the property Algorithm 1's
        utilization estimator relies on.
        """
        samples = _int_samples(samples)
        if samples.ndim != 2 or samples.shape[1] != 2 * SAMPLES_PER_PRB:
            raise ValueError(f"expected shape (n, 24), got {samples.shape}")
        width = self.config.iq_width
        bits_needed = _exact_bits_needed(samples)
        exponents = np.maximum(bits_needed - width, 0)
        return exponents.astype(np.uint8)

    def compress_array(self, samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compress to (exponents, mantissas) arrays.

        Returns exponents of shape (n_prbs,) and mantissas of shape
        (n_prbs, 24) as signed integers already shifted.  Raises
        :class:`ValueError` when a PRB would need an exponent above 15 —
        the wire nibble cannot represent it, and silently masking it (as a
        naive implementation might) corrupts every sample in the PRB.
        int16 input can never trigger this (worst case 16 - 2 = 14), but
        callers feeding wider accumulators must saturate first.  The
        shift runs in the samples' own integer dtype.
        """
        samples = _int_samples(samples)
        exponents = self.exponents_for(samples)
        overflow = int(exponents.max(initial=0))
        if overflow > MAX_WIRE_EXPONENT:
            raise ValueError(
                f"BFP exponent {overflow} exceeds the 4-bit wire field "
                f"(max {MAX_WIRE_EXPONENT}); saturate samples to int16 "
                "before compressing"
            )
        mantissas = samples >> exponents.astype(samples.dtype)[:, None]
        return exponents, mantissas

    def decompress_array(
        self, exponents: np.ndarray, mantissas: np.ndarray
    ) -> np.ndarray:
        """Restore int16 samples from (exponents, mantissas)."""
        exps = np.asarray(exponents, dtype=np.int64)
        mants = np.asarray(mantissas, dtype=np.int64)
        restored = mants << exps[:, None]
        return np.clip(restored, -32768, 32767).astype(np.int16)

    # -- wire-level API ----------------------------------------------------

    def compress(self, samples: np.ndarray) -> bytes:
        """Serialize samples of shape (n_prbs, 24) to the wire format.

        Each PRB is emitted as ``exponent byte || packed mantissas``
        exactly as in Figure 2 of the paper.  All PRBs are packed by one
        :func:`_pack_mantissas` pass and written with a single strided
        store of exponent bytes + mantissa blocks.
        """
        samples = _int_samples(samples)
        if self.config.comp_meth == NO_COMP_METH:
            return samples.astype(">i2").tobytes()
        exponents, mantissas = self.compress_array(samples)
        width = self.config.iq_width
        out = np.empty((len(exponents), 1 + 3 * width), dtype=np.uint8)
        out[:, 0] = exponents
        out[:, 1:] = _pack_mantissas(mantissas, width)
        return out.tobytes()

    def decompress(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Parse a wire payload back to int16 samples of shape (n_prbs, 24)."""
        if self.config.comp_meth == NO_COMP_METH:
            expected = n_prbs * 2 * SAMPLES_PER_PRB * 2
            if len(payload) < expected:
                raise ValueError("truncated uncompressed payload")
            flat = np.frombuffer(payload[:expected], dtype=">i2")
            return flat.reshape(n_prbs, 2 * SAMPLES_PER_PRB).astype(np.int16)
        exponents, mantissas = self.parse_wire(payload, n_prbs)
        return self.decompress_array(exponents, mantissas)

    def decompress_stack(self, payloads, n_prbs: int) -> np.ndarray:
        """Decompress N equal-length payloads in one codec pass.

        Returns int16 samples of shape ``(len(payloads), n_prbs, 24)``.
        This is the batched substrate of the DAS uplink merge: the N
        per-RU payloads are concatenated and parsed as one ``N * n_prbs``
        PRB grid, so the bit-unpacking runs once instead of N times.
        """
        n_ops = len(payloads)
        if n_ops == 0:
            return np.zeros((0, n_prbs, 2 * SAMPLES_PER_PRB), dtype=np.int16)
        per_payload = n_prbs * self.config.prb_payload_bytes()
        for payload in payloads:
            if len(payload) < per_payload:
                raise ValueError("truncated payload in decompress_stack")
        combined = b"".join(bytes(p[:per_payload]) for p in payloads)
        stacked = self.decompress(combined, n_ops * n_prbs)
        return stacked.reshape(n_ops, n_prbs, 2 * SAMPLES_PER_PRB)

    def parse_wire(self, payload: bytes, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Parse wire payload to (exponents, signed mantissas) without
        expanding to full int16 — used where only exponents are needed.

        Returned arrays are read-only: identical payloads share one memo
        entry (the DAS/RU-sharing replicate pattern), so callers that
        mutate must ``.copy()`` first.
        """
        width = self.config.iq_width
        prb_bytes = self.config.prb_payload_bytes()
        if len(payload) < n_prbs * prb_bytes:
            raise ValueError(
                f"truncated BFP payload: need {n_prbs * prb_bytes}, got {len(payload)}"
            )
        payload_bytes = bytes(payload[: n_prbs * prb_bytes])
        memo_key = (self.config.to_byte(), payload_bytes)
        cached = _PARSE_MEMO.get(memo_key)
        if cached is not None:
            return cached
        grid = np.frombuffer(payload_bytes, dtype=np.uint8).reshape(
            n_prbs, prb_bytes
        )
        exponents = grid[:, 0] & 0x0F
        mantissas = _unpack_mantissas(grid[:, 1:], width)
        result = (_freeze(exponents), _freeze(mantissas))
        _PARSE_MEMO.put(memo_key, result)
        return result

    def read_exponents(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Read only the per-PRB exponent bytes (Algorithm 1's fast path).

        A pure strided view over the wire bytes — no bit unpacking.
        """
        if self.config.comp_meth == NO_COMP_METH:
            raise ValueError("uncompressed payloads carry no BFP exponents")
        prb_bytes = self.config.prb_payload_bytes()
        if len(payload) < n_prbs * prb_bytes:
            raise ValueError("truncated BFP payload")
        raw = np.frombuffer(payload, dtype=np.uint8, count=n_prbs * prb_bytes)
        return raw[::prb_bytes] & 0x0F


def codec_for(config: CompressionConfig):
    """The wire codec implementing ``config.comp_meth``.

    The dispatch point of the two-codec fronthaul: BFP and uncompressed
    payloads go through :class:`BfpCompressor`, modulation compression
    through :class:`~repro.fronthaul.modcomp.ModCompressor`.  Both expose
    the same compress/decompress/decompress_stack/parse_wire/
    read_exponents surface, so everything above this line (U-plane
    sections, DAS merge, PRB monitoring) is codec-agnostic.
    """
    if config.comp_meth == MOD_COMP_METH:
        from repro.fronthaul.modcomp import ModCompressor

        return ModCompressor(config)
    return BfpCompressor(config)


def merge_payloads(
    payloads, n_prbs: int, config: CompressionConfig
) -> bytes:
    """Batched A4 merge: sum N compressed payloads, recompress once.

    Decompresses the operands into one ``(n_ops, n_prbs, 24)`` stack with a
    single codec pass, sums across operands with int64 accumulation and
    int16 saturation, and compresses the result in one pass — the DAS
    uplink combine without any per-section round-trips.  Works for any
    negotiated codec via :func:`codec_for`.
    """
    compressor = codec_for(config)
    stack = compressor.decompress_stack(payloads, n_prbs)
    total = stack.sum(axis=0, dtype=np.int64)
    merged = np.clip(total, -32768, 32767).astype(np.int16)
    return compressor.compress(merged)


def _exact_bits_needed(samples: np.ndarray) -> np.ndarray:
    """Exact two's-complement bit count per PRB row.

    A non-negative v needs ``bit_length(v) + 1`` bits and a negative v
    ``bit_length(-v - 1) + 1`` (e.g. -256 fits in 9 bits).  ``v ^ (v >>
    msb)`` is v or ``-v - 1`` respectively, computed in the samples' own
    signed dtype; the bit length of a row's OR is the row's largest bit
    length; and frexp's exponent of a positive integer is its bit length
    (exact below 2**53 — any larger value needs an exponent far above
    the wire's 15 anyway).
    """
    msb = samples.dtype.itemsize * 8 - 1
    magnitude = np.bitwise_or.reduce(samples ^ (samples >> msb), axis=1)
    return np.frexp(magnitude)[1] + 1
