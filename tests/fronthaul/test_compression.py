"""Block Floating Point compression tests (the Algorithm 1 substrate)."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MAX_WIRE_EXPONENT,
    MOD_COMP_METH,
    NO_COMP_METH,
    SAMPLES_PER_PRB,
    BfpCompressor,
    CompressionConfig,
    _exact_bits_needed,
    _pack_bits,
    _pack_mantissas,
    _unpack_mantissas,
    clear_codec_memo,
    codec_for,
    codec_memo_stats,
    merge_payloads,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_bfp.json"


class TestCompressionConfig:
    def test_byte_roundtrip(self):
        config = CompressionConfig(iq_width=9)
        assert CompressionConfig.from_byte(config.to_byte()) == config

    def test_uncompressed_byte_roundtrip(self):
        config = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        assert CompressionConfig.from_byte(config.to_byte()) == config

    def test_prb_payload_bytes_bfp9(self):
        # Figure 2: 9-bit mantissas -> 27 bytes of IQ + 1 exponent byte.
        assert CompressionConfig(iq_width=9).prb_payload_bytes() == 28

    def test_prb_payload_bytes_bfp14(self):
        assert CompressionConfig(iq_width=14).prb_payload_bytes() == 1 + 42

    def test_prb_payload_bytes_uncompressed(self):
        config = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        assert config.prb_payload_bytes() == 48

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CompressionConfig(iq_width=1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            CompressionConfig(comp_meth=5)


class TestBfpExponents:
    def test_idle_prb_has_zero_exponent(self):
        """Near-zero samples compress with exponent 0 — what Algorithm 1
        keys on to mark PRBs idle."""
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        quiet = np.full((3, 24), 2, dtype=np.int16)
        assert (compressor.exponents_for(quiet) == 0).all()

    def test_loud_prb_has_positive_exponent(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        loud = np.full((3, 24), 8000, dtype=np.int16)
        assert (compressor.exponents_for(loud) > 0).all()

    def test_exponent_scales_with_amplitude(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        amplitudes = [100, 1000, 8000, 30000]
        exponents = [
            compressor.exponents_for(
                np.full((1, 24), amplitude, dtype=np.int16)
            )[0]
            for amplitude in amplitudes
        ]
        assert exponents == sorted(exponents)
        assert exponents[-1] > exponents[0]

    def test_exponent_exact_power_boundaries(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        # 255 fits in 9 bits (needs 9), 256 needs 10 -> exponent 1.
        assert compressor.exponents_for(
            np.full((1, 24), 255, dtype=np.int16))[0] == 0
        assert compressor.exponents_for(
            np.full((1, 24), 256, dtype=np.int16))[0] == 1

    def test_negative_boundary(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        # -256 fits exactly in 9 bits two's complement.
        assert compressor.exponents_for(
            np.full((1, 24), -256, dtype=np.int16))[0] == 0
        assert compressor.exponents_for(
            np.full((1, 24), -257, dtype=np.int16))[0] == 1


class TestBfpRoundtrip:
    @pytest.mark.parametrize("iq_width", [6, 8, 9, 12, 14, 16])
    def test_quantization_error_bounded(self, rng, iq_width):
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        samples = rng.integers(-30000, 30000, size=(10, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 10)
        max_exponent = int(compressor.exponents_for(samples).max())
        # Error bounded by the quantization step.
        assert np.abs(
            restored.astype(int) - samples.astype(int)
        ).max() <= (1 << max_exponent)

    def test_lossless_when_width_sufficient(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=16))
        samples = rng.integers(-30000, 30000, size=(5, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 5)
        assert (restored == samples).all()

    def test_small_samples_lossless_at_width9(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        samples = rng.integers(-255, 255, size=(8, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 8)
        assert (restored == samples).all()

    def test_uncompressed_roundtrip(self, rng):
        compressor = BfpCompressor(
            CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        )
        samples = rng.integers(-30000, 30000, size=(4, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 4)
        assert (restored == samples).all()

    def test_wire_size_matches_config(self, rng):
        config = CompressionConfig(iq_width=9)
        compressor = BfpCompressor(config)
        samples = rng.integers(-4000, 4000, size=(7, 24)).astype(np.int16)
        assert len(compressor.compress(samples)) == 7 * config.prb_payload_bytes()

    def test_read_exponents_matches_compress(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        samples = rng.integers(-20000, 20000, size=(6, 24)).astype(np.int16)
        wire = compressor.compress(samples)
        assert (
            compressor.read_exponents(wire, 6)
            == compressor.exponents_for(samples)
        ).all()

    def test_truncated_payload_raises(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        with pytest.raises(ValueError):
            compressor.decompress(b"\x00" * 10, 2)

    def test_read_exponents_rejects_uncompressed(self):
        compressor = BfpCompressor(
            CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        )
        with pytest.raises(ValueError):
            compressor.read_exponents(b"\x00" * 48, 1)

    def test_rejects_bad_shape(self):
        compressor = BfpCompressor()
        with pytest.raises(ValueError):
            compressor.exponents_for(np.zeros((3, 12), dtype=np.int16))

    @settings(max_examples=50, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(4, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        ),
        iq_width=st.sampled_from([8, 9, 12, 14]),
    )
    def test_roundtrip_error_bound_property(self, samples, iq_width):
        """Property: quantization error never exceeds one mantissa step."""
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        wire = compressor.compress(samples)
        restored = compressor.decompress(wire, len(samples))
        exponents = compressor.exponents_for(samples)
        steps = (1 << exponents.astype(int))[:, None]
        assert (
            np.abs(restored.astype(int) - samples.astype(int)) <= steps
        ).all()

    @settings(max_examples=50, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(3, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        )
    )
    def test_double_compression_is_idempotent(self, samples):
        """Compressing an already-quantized signal is lossless — the DAS
        merge path (decompress, sum, recompress) relies on this."""
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        once = compressor.decompress(compressor.compress(samples), 3)
        twice = compressor.decompress(compressor.compress(once), 3)
        assert (once == twice).all()

    @settings(max_examples=30, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(4, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        ),
        iq_width=st.integers(min_value=2, max_value=16),
    )
    def test_roundtrip_all_widths_property(self, samples, iq_width):
        """Property over EVERY mantissa width 2..16: quantization error is
        bounded by one step and re-compressing the restored signal is
        exactly idempotent (wire bytes included)."""
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        wire = compressor.compress(samples)
        restored = compressor.decompress(wire, len(samples))
        steps = (1 << compressor.exponents_for(samples).astype(int))[:, None]
        assert (
            np.abs(restored.astype(int) - samples.astype(int)) <= steps
        ).all()
        rewire = compressor.compress(restored)
        assert rewire == compressor.compress(
            compressor.decompress(rewire, len(samples))
        )


class TestExponentOverflow:
    """The wire nibble holds exponents 0..15; wider values must raise, not
    be silently masked (the seed's ``& 0x0F`` corruption bug)."""

    def test_int16_input_never_overflows(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=2))
        extremes = np.full((2, 24), -32768, dtype=np.int16)
        exponents, _ = compressor.compress_array(extremes)
        assert exponents.max() <= MAX_WIRE_EXPONENT

    def test_wide_accumulator_raises(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        too_hot = np.full((1, 24), 1 << 25, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
            compressor.compress(too_hot)

    def test_wide_accumulator_raises_in_compress_array(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=2))
        too_hot = np.full((3, 24), 1 << 20, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
            compressor.compress_array(too_hot)

    def test_saturated_input_compresses_fine(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        hot = np.clip(
            np.full((1, 24), 1 << 25, dtype=np.int64), -32768, 32767
        )
        wire = compressor.compress(hot)
        assert len(wire) == compressor.config.prb_payload_bytes()


class TestGoldenWireBytes:
    """Wire-format compatibility: the vectorized codec must emit bytes
    identical to the seed (pre-optimization) implementation, pinned in
    ``golden_bfp.json`` for widths 8/9/14 and the uncompressed path."""

    @pytest.fixture(scope="class")
    def golden_cases(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_covers_required_configs(self, golden_cases):
        widths = {
            (case["iq_width"], case["comp_meth"]) for case in golden_cases
        }
        assert {(8, 1), (9, 1), (14, 1), (16, 0)} <= widths

    def test_compress_matches_golden_bytes(self, golden_cases):
        for case in golden_cases:
            config = CompressionConfig(
                iq_width=case["iq_width"], comp_meth=case["comp_meth"]
            )
            samples = np.array(case["samples"], dtype=np.int16)
            wire = BfpCompressor(config).compress(samples)
            assert wire.hex() == case["wire_hex"], case["label"]

    def test_decompress_golden_roundtrip(self, golden_cases):
        for case in golden_cases:
            config = CompressionConfig(
                iq_width=case["iq_width"], comp_meth=case["comp_meth"]
            )
            compressor = BfpCompressor(config)
            wire = bytes.fromhex(case["wire_hex"])
            restored = compressor.decompress(wire, case["n_prbs"])
            # Golden wire bytes re-compress to themselves (idempotence).
            assert compressor.compress(restored).hex() == case["wire_hex"]


class TestCodecMemo:
    """Repeated identical payloads (the RU-sharing demux) hit the LRU
    parse memo instead of re-running the unpack."""

    def test_parse_memo_hit(self, rng):
        clear_codec_memo()
        compressor = BfpCompressor()
        samples = rng.integers(-8000, 8000, size=(20, 24)).astype(np.int16)
        wire = compressor.compress(samples)
        exponents_a, mantissas_a = compressor.parse_wire(wire, 20)
        exponents_b, mantissas_b = compressor.parse_wire(wire, 20)
        assert mantissas_a is mantissas_b  # shared memo entry
        assert not mantissas_a.flags.writeable
        assert codec_memo_stats()["parse_hits"] >= 1

    def test_memo_distinguishes_configs(self, rng):
        clear_codec_memo()
        samples = rng.integers(-100, 100, size=(4, 24)).astype(np.int16)
        wire9 = BfpCompressor(CompressionConfig(iq_width=9)).compress(samples)
        wire14 = BfpCompressor(CompressionConfig(iq_width=14)).compress(samples)
        assert len(wire9) != len(wire14)


def _bit_length_reference(value: int) -> int:
    """Two's-complement bits needed for ``value``, via ``int.bit_length``."""
    return (value if value >= 0 else -value - 1).bit_length() + 1


class TestExactBitsNeeded:
    """The OR-reduction exponent search against Python's own integers."""

    BOUNDARY = [-32768, -257, -256, -2, -1, 0, 1, 255, 256, 32767]
    ACCUMULATOR = [
        -(1 << 40), -(1 << 31) - 1, -(1 << 31), (1 << 31) - 1, 1 << 31,
        (1 << 40) - 1, 1 << 40, (1 << 52) - 1, -(1 << 52),
    ]

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_boundary_rows_match_int_bit_length(self, dtype):
        rows = np.repeat(np.array(self.BOUNDARY, dtype=dtype)[:, None], 24, axis=1)
        expected = [_bit_length_reference(v) for v in self.BOUNDARY]
        assert _exact_bits_needed(rows).tolist() == expected

    def test_int64_accumulator_rows_match_int_bit_length(self):
        rows = np.repeat(np.array(self.ACCUMULATOR, dtype=np.int64)[:, None], 24, axis=1)
        expected = [_bit_length_reference(v) for v in self.ACCUMULATOR]
        assert _exact_bits_needed(rows).tolist() == expected

    def test_mixed_rows_take_the_widest_sample(self, rng):
        rows = rng.integers(-(1 << 35), 1 << 35, size=(64, 24))
        rows[:, :12] >>= rng.integers(0, 36, size=(64, 1))
        expected = [
            max(_bit_length_reference(int(v)) for v in row) for row in rows
        ]
        assert _exact_bits_needed(rows).tolist() == expected
        assert _exact_bits_needed(rows.astype(np.int64)[:, ::-1]).tolist() == expected

    def test_exponent_above_wire_nibble_still_raises(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        # 1 << 24 needs 26 bits: exponent 17 > 15.
        hot = np.full((2, 24), 1 << 24, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
            compressor.compress(hot)


#: Every legal mantissa width: BFP 2..16 and modcomp 1..14.
ALL_WIDTHS = sorted(set(range(2, 17)) | set(range(1, 15)))


def _reference_blocks(mantissas: np.ndarray, width: int) -> bytes:
    """Per-PRB seed packing of signed mantissas (the scalar reference)."""
    unsigned = (mantissas.astype(np.int64) & ((1 << width) - 1)).astype(np.uint32)
    return b"".join(_pack_bits(row, width) for row in unsigned)


#: (udCompMeth, width) for every legal BFP and modcomp mantissa width.
CODEC_WIDTHS = [(BFP_COMP_METH, w) for w in range(2, 17)] + [
    (MOD_COMP_METH, w) for w in range(1, 15)
]

codec_widths = st.sampled_from(CODEC_WIDTHS)
sample_dtypes = st.sampled_from([np.int16, np.int32, np.int64])
layouts = st.sampled_from(["contiguous", "strided", "fortran", "reversed"])
seeds = st.integers(0, 2**32 - 1)


def _drawn_samples(seed: int, n_prbs: int) -> np.ndarray:
    """int16-range samples, (n_prbs, 24), each PRB at its own magnitude."""
    rng = np.random.default_rng(seed)
    bound = 1 << rng.integers(0, 16, size=(n_prbs, 1))
    return rng.integers(-bound, bound, size=(n_prbs, 24))


def _laid_out(values: np.ndarray, dtype, layout: str) -> np.ndarray:
    """``values`` as ``dtype`` in the given memory layout."""
    if layout == "strided":
        wide = np.zeros((len(values), 48), dtype=dtype)
        wide[:, 1::2] = values
        return wide[:, 1::2]
    if layout == "fortran":
        return np.asfortranarray(values.astype(dtype))
    if layout == "reversed":
        return np.ascontiguousarray(values[::-1, ::-1], dtype=dtype)[::-1, ::-1]
    return values.astype(dtype)


def _extreme_mantissas(rng, width: int, n_prbs: int = 7) -> np.ndarray:
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    mantissas = rng.integers(low, high + 1, size=(n_prbs, 24))
    mantissas[0] = low
    mantissas[1] = high
    mantissas[2, ::2] = -1
    return mantissas


class TestMantissaPacking:
    """Scatter pack / gather unpack against the seed bit packer, and the
    per-PRB independence slot-batched frame build relies on."""

    @pytest.mark.parametrize("width", ALL_WIDTHS)
    def test_round_trip_every_width(self, rng, width):
        mantissas = _extreme_mantissas(rng, width)
        blocks = _pack_mantissas(mantissas, width)
        assert blocks.shape == (len(mantissas), 3 * width)
        assert blocks.tobytes() == _reference_blocks(mantissas, width)
        assert (_unpack_mantissas(blocks, width) == mantissas).all()
        empty = _pack_mantissas(np.zeros((0, 24), dtype=np.int16), width)
        assert empty.shape == (0, 3 * width)
        assert _unpack_mantissas(empty, width).shape == (0, 24)

    @pytest.mark.parametrize("width", ALL_WIDTHS)
    def test_non_contiguous_inputs(self, rng, width):
        base = _extreme_mantissas(rng, width, n_prbs=14)
        wide = np.zeros((14, 48), dtype=np.int64)
        wide[:, 1::2] = base
        views = {
            "strided": wide[:, 1::2],
            "every_other_prb": wide[::2, 1::2],
            "fortran": np.asfortranarray(base.astype(np.int16)),
            "reversed": base.astype(np.int32)[::-1, ::-1],
        }
        for name, view in views.items():
            assert not view.flags.c_contiguous, name
            blocks = _pack_mantissas(view, width)
            assert blocks.tobytes() == _reference_blocks(view, width), name
            # Unpack from a strided byte grid, as parse_wire does.
            grid = np.zeros((len(view), 1 + 3 * width), dtype=np.uint8)
            grid[:, 1:] = blocks
            assert (_unpack_mantissas(grid[:, 1:], width) == view).all(), name

    @pytest.mark.parametrize("width", range(2, 17))
    def test_bfp_wire_matches_seed_packing_every_width(self, rng, width):
        compressor = BfpCompressor(CompressionConfig(iq_width=width))
        samples = rng.integers(-32768, 32768, size=(5, 24)).astype(np.int16)
        exponents, mantissas = compressor.compress_array(samples)
        grid = np.frombuffer(compressor.compress(samples), dtype=np.uint8)
        grid = grid.reshape(5, 1 + 3 * width)
        assert grid[:, 0].tolist() == exponents.tolist()
        assert grid[:, 1:].tobytes() == _reference_blocks(mantissas, width)
        clear_codec_memo()
        parsed_exponents, parsed = compressor.parse_wire(grid.tobytes(), 5)
        assert (parsed == mantissas).all()
        assert (parsed_exponents == exponents).all()


    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 16),
        dtype=sample_dtypes,
        layout=layouts,
        n_prbs=st.integers(0, 9),
        seed=seeds,
    )
    def test_scatter_packer_matches_seed_packer(
        self, width, dtype, layout, n_prbs, seed
    ):
        rng = np.random.default_rng(seed)
        mantissas = _extreme_mantissas(rng, width, n_prbs=max(n_prbs, 3))
        mantissas = _laid_out(mantissas[:n_prbs], dtype, layout)
        blocks = _pack_mantissas(mantissas, width)
        assert blocks.tobytes() == _reference_blocks(mantissas, width)
        # The gather unpacker round-trips from a strided byte grid.
        grid = np.zeros((n_prbs, 2 + 3 * width), dtype=np.uint8)
        grid[:, 2:] = blocks
        assert (_unpack_mantissas(grid[:, 2:], width) == mantissas).all()

    @settings(max_examples=60, deadline=None)
    @given(
        codec=codec_widths,
        dtype=sample_dtypes,
        layout=layouts,
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        seed=seeds,
    )
    def test_stacked_compress_is_concatenation(
        self, codec, dtype, layout, sizes, seed
    ):
        comp_meth, width = codec
        compressor = codec_for(CompressionConfig(width, comp_meth))
        grids = [
            _drawn_samples(seed + i, n_prbs) for i, n_prbs in enumerate(sizes)
        ]
        stacked = np.vstack(grids)
        wire = compressor.compress(_laid_out(stacked, dtype, layout))
        assert wire == b"".join(
            compressor.compress(_laid_out(g, dtype, layout)) for g in grids
        )
        clear_codec_memo()
        parsed = compressor.parse_wire(wire, len(stacked))
        assert (
            compressor.decompress(wire, len(stacked))
            == compressor.decompress_array(*parsed)
        ).all()

    @settings(max_examples=60, deadline=None)
    @given(
        codec=codec_widths,
        dtype=sample_dtypes,
        layout=layouts,
        bounds=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        seed=seeds,
    )
    def test_prb_range_slice_is_range_compress(
        self, codec, dtype, layout, bounds, seed
    ):
        comp_meth, width = codec
        config = CompressionConfig(width, comp_meth)
        compressor = codec_for(config)
        start, stop = sorted(bounds)
        samples = _laid_out(_drawn_samples(seed, 8), dtype, layout)
        per_prb = config.prb_payload_bytes()
        wire = compressor.compress(samples)
        assert wire[start * per_prb : stop * per_prb] == compressor.compress(
            samples[start:stop]
        )


class TestBatchedHelpers:
    def test_decompress_stack_matches_sequential(self, rng):
        compressor = BfpCompressor()
        payloads = []
        expected = []
        for _ in range(4):
            samples = rng.integers(-9000, 9000, size=(6, 24)).astype(np.int16)
            wire = compressor.compress(samples)
            payloads.append(wire)
            expected.append(compressor.decompress(wire, 6))
        stack = compressor.decompress_stack(payloads, 6)
        assert stack.shape == (4, 6, 24)
        assert (stack == np.stack(expected)).all()

    def test_merge_payloads_matches_manual_sum(self, rng):
        config = CompressionConfig(iq_width=9)
        compressor = BfpCompressor(config)
        operands = [
            rng.integers(-8000, 8000, size=(5, 24)).astype(np.int16)
            for _ in range(3)
        ]
        payloads = [compressor.compress(op) for op in operands]
        merged_wire = merge_payloads(payloads, 5, config)
        total = np.zeros((5, 24), dtype=np.int64)
        for payload in payloads:
            total += compressor.decompress(payload, 5)
        manual = np.clip(total, -32768, 32767).astype(np.int16)
        assert merged_wire == compressor.compress(manual)
