"""O-RAN modulation compression of U-plane IQ payloads.

The second standard fronthaul codec (O-RAN CUS Annex A.4, udCompMeth 4;
Lagén et al., *Modulation Compression in Next Generation RAN*): instead
of a per-PRB exponent over near-full-width mantissas, the DU transmits
the constellation points themselves — each I/Q component quantized to an
``iq_width``-bit signed value plus a per-PRB power-of-two scaler that
maps the points back onto the fixed-point grid.  Because a QAM
constellation needs only a handful of bits per axis (16-QAM fits in 3),
modulation compression cuts wire bytes another ~2–3x below 9-bit BFP,
which directly raises the cell-slots/s a fronthaul switch can carry.

Per-PRB wire layout (mirroring BFP's ``exponent || mantissas`` grid):

- 2-byte big-endian ``udCompParam``: bit 15 is ``csf`` (constellation
  shift flag, set exactly when the scaler is non-zero), bits 14..0 the
  power-of-two ``scaler`` ``s``.
- ``3 * iq_width`` bytes of 24 MSB-first two's-complement mantissas
  (``24 * width`` is always a multiple of 8).

Compression picks the smallest ``s`` such that every ``x >> s`` fits a
signed ``iq_width``-bit mantissa; decompression reconstructs mid-rise:
``x' = (m << s) + 2**(s-1)`` (offset 0 when ``s == 0``, which is then
lossless).  The reconstruction error is at most half the quantization
step ``2**s``, and re-compressing a decompressed payload reproduces the
wire bytes exactly — the "lossy once, stable forever" property the DAS
merge and the differential harness rely on.

The codec shares the BFP fast path's narrow-dtype helpers: one
:func:`~repro.fronthaul.compression._pack_mantissas` pass and one
strided store per payload on compress, one gather-and-shift
:func:`~repro.fronthaul.compression._unpack_mantissas` pass on parse,
and the shared LRU parse memo for the RU-sharing demux pattern.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fronthaul.compression import (
    MOD_COMP_METH,
    SAMPLES_PER_PRB,
    CompressionConfig,
    _exact_bits_needed,
    _freeze,
    _int_samples,
    _pack_mantissas,
    _PARSE_MEMO,
    _unpack_mantissas,
)


def max_scaler(iq_width: int) -> int:
    """Largest legal scaler for a mantissa width.

    int16 sources never need more than ``16 - width`` right-shifts, so
    anything above is an illegal parameter the
    :class:`~repro.conformance.validator.WireValidator` flags.
    """
    return max(0, 16 - iq_width)


class ModCompressor:
    """Modulation-compression codec over int16 IQ samples.

    Mirrors :class:`~repro.fronthaul.compression.BfpCompressor` exactly:
    samples are interleaved I/Q int16 arrays of shape ``(n_prbs, 24)``,
    ``compress`` yields per-PRB ``csf``/``scaler`` params plus packed
    mantissas, and ``read_exponents`` returns the scalers — the same
    per-PRB energy indicator Algorithm 1's utilization estimator reads
    from BFP exponents, so the PRB-monitoring path is codec-agnostic.
    """

    def __init__(self, config: CompressionConfig):
        if config.comp_meth != MOD_COMP_METH:
            raise ValueError(
                f"ModCompressor requires comp_meth {MOD_COMP_METH}, "
                f"got {config.comp_meth}"
            )
        self.config = config

    # -- array-level API ---------------------------------------------------

    def scalers_for(self, samples: np.ndarray) -> np.ndarray:
        """Per-PRB scalers for int16 samples of shape (n_prbs, 24).

        The smallest power-of-two right shift after which every sample in
        the PRB fits a signed ``iq_width``-bit mantissa.  Idle PRBs get
        scaler 0.
        """
        samples = _int_samples(samples)
        if samples.ndim != 2 or samples.shape[1] != 2 * SAMPLES_PER_PRB:
            raise ValueError(f"expected shape (n, 24), got {samples.shape}")
        width = self.config.iq_width
        bits_needed = _exact_bits_needed(samples)
        return np.maximum(bits_needed - width, 0).astype(np.uint16)

    def compress_array(self, samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compress to (scalers, mantissas) arrays.

        Returns scalers of shape (n_prbs,) and mantissas of shape
        (n_prbs, 24) as signed integers already shifted.  Raises
        :class:`ValueError` when a PRB would need a scaler above the
        legal ``16 - width`` bound — int16 input can never trigger this,
        but callers feeding wider accumulators must saturate first.  The
        shift runs in the samples' own integer dtype.
        """
        samples = _int_samples(samples)
        scalers = self.scalers_for(samples)
        overflow = int(scalers.max(initial=0))
        legal = max_scaler(self.config.iq_width)
        if overflow > legal:
            raise ValueError(
                f"modcomp scaler {overflow} exceeds the legal bound "
                f"{legal} for width {self.config.iq_width}; saturate "
                "samples to int16 before compressing"
            )
        mantissas = samples >> scalers.astype(samples.dtype)[:, None]
        return scalers, mantissas

    def decompress_array(
        self, scalers: np.ndarray, mantissas: np.ndarray
    ) -> np.ndarray:
        """Restore int16 samples from (scalers, mantissas).

        Mid-rise reconstruction: each mantissa maps to the centre of its
        quantization cell, ``(m << s) + 2**(s-1)``, so the error is at
        most half a step and the scaler-0 path is exact.
        """
        # Clamp the shift so illegal wire scalers (the validator's
        # problem) cannot overflow the int64 accumulator here.
        shifts = np.minimum(np.asarray(scalers, dtype=np.int64), 32)
        mants = np.asarray(mantissas, dtype=np.int64)
        half = (np.int64(1) << shifts) >> 1
        restored = (mants << shifts[:, None]) + half[:, None]
        return np.clip(restored, -32768, 32767).astype(np.int16)

    # -- wire-level API ----------------------------------------------------

    def compress(self, samples: np.ndarray) -> bytes:
        """Serialize samples of shape (n_prbs, 24) to the wire format.

        Each PRB is emitted as ``csf/scaler halfword || packed
        mantissas``; all PRBs are packed by one ``_pack_mantissas`` pass
        and written with a single strided store.
        """
        scalers, mantissas = self.compress_array(samples)
        width = self.config.iq_width
        params = scalers | ((scalers > 0).astype(np.uint16) << 15)  # csf bit
        out = np.empty((len(scalers), 2 + 3 * width), dtype=np.uint8)
        out[:, 0] = params >> 8
        out[:, 1] = params & 0xFF
        out[:, 2:] = _pack_mantissas(mantissas, width)
        return out.tobytes()

    def decompress(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Parse a wire payload back to int16 samples of shape (n_prbs, 24)."""
        scalers, mantissas = self.parse_wire(payload, n_prbs)
        return self.decompress_array(scalers, mantissas)

    def decompress_stack(self, payloads, n_prbs: int) -> np.ndarray:
        """Decompress N equal-length payloads in one codec pass.

        Returns int16 samples of shape ``(len(payloads), n_prbs, 24)`` —
        the batched substrate of the DAS uplink merge, identical in shape
        and contract to the BFP fast path.
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
        """Parse wire payload to (scalers, signed mantissas).

        Returned arrays are read-only: identical payloads share one memo
        entry, so callers that mutate must ``.copy()`` first.
        """
        width = self.config.iq_width
        prb_bytes = self.config.prb_payload_bytes()
        if len(payload) < n_prbs * prb_bytes:
            raise ValueError(
                f"truncated modcomp payload: need {n_prbs * prb_bytes}, "
                f"got {len(payload)}"
            )
        payload_bytes = bytes(payload[: n_prbs * prb_bytes])
        memo_key = (self.config.to_byte(), payload_bytes)
        cached = _PARSE_MEMO.get(memo_key)
        if cached is not None:
            return cached
        grid = np.frombuffer(payload_bytes, dtype=np.uint8).reshape(
            n_prbs, prb_bytes
        )
        params = (grid[:, 0].astype(np.uint16) << 8) | grid[:, 1]
        scalers = (params & 0x7FFF).astype(np.uint16)
        mantissas = _unpack_mantissas(grid[:, 2:], width)
        result = (_freeze(scalers), _freeze(mantissas))
        _PARSE_MEMO.put(memo_key, result)
        return result

    def read_params(self, payload: bytes, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-PRB (csf, scaler) arrays without unpacking mantissas.

        A pure strided view over the param halfwords — the validator's
        legality fast path.
        """
        prb_bytes = self.config.prb_payload_bytes()
        if len(payload) < n_prbs * prb_bytes:
            raise ValueError("truncated modcomp payload")
        raw = np.frombuffer(payload, dtype=np.uint8, count=n_prbs * prb_bytes)
        hi = raw[0::prb_bytes].astype(np.uint16)
        lo = raw[1::prb_bytes].astype(np.uint16)
        params = (hi << 8) | lo
        return (params >> 15).astype(np.uint8), (params & 0x7FFF)

    def read_exponents(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Per-PRB scalers, the modcomp analogue of BFP exponents.

        Idle PRBs carry scaler 0 and loaded PRBs a positive scaler —
        exactly the utilization signal Algorithm 1 thresholds on, so the
        PRB monitor works unmodified over either codec.
        """
        _csf, scalers = self.read_params(payload, n_prbs)
        return scalers


__all__ = ["ModCompressor", "max_scaler"]
