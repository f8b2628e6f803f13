"""IQ grid, QAM and fixed-point conversion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.iq import (
    QamModulator,
    ResourceGrid,
    int16_to_iq,
    iq_to_int16,
    random_qam_grid,
)


class TestQamModulator:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_roundtrip_noiseless(self, order, rng):
        modulator = QamModulator(order)
        symbols = rng.integers(0, order, 500)
        assert (modulator.demodulate(modulator.modulate(symbols)) == symbols).all()

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_unit_average_energy(self, order):
        modulator = QamModulator(order)
        points = modulator.modulate(np.arange(order))
        assert float(np.mean(np.abs(points) ** 2)) == pytest.approx(1.0)

    def test_constellation_distinct(self):
        modulator = QamModulator(16)
        points = modulator.modulate(np.arange(16))
        assert len(set(np.round(points, 9))) == 16

    def test_roundtrip_with_mild_noise(self, rng):
        modulator = QamModulator(16)
        symbols = rng.integers(0, 16, 2000)
        noisy = modulator.modulate(symbols) + 0.05 * (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        )
        errors = (modulator.demodulate(noisy) != symbols).sum()
        assert errors == 0

    def test_heavy_noise_causes_errors(self, rng):
        modulator = QamModulator(256)
        symbols = rng.integers(0, 256, 2000)
        noisy = modulator.modulate(symbols) + 0.5 * (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        )
        errors = (modulator.demodulate(noisy) != symbols).sum()
        assert errors > 0

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            QamModulator(32)

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            QamModulator(4).modulate(np.array([4]))

    def test_gray_mapping_adjacent_levels_differ_one_bit(self):
        modulator = QamModulator(16)
        # Adjacent I-levels at fixed Q must differ in exactly one bit of
        # the I half (Gray property).
        for left, right in zip(modulator._gray[:-1], modulator._gray[1:]):
            assert bin(int(left) ^ int(right)).count("1") == 1


class TestFixedPoint:
    def test_roundtrip_error_small(self, rng):
        grid = (rng.normal(size=48) + 1j * rng.normal(size=48)) * 0.3
        restored = int16_to_iq(iq_to_int16(grid))
        assert np.abs(restored - grid).max() < 1e-3

    def test_shape_conversion(self, rng):
        grid = rng.normal(size=(2, 120)) + 1j * rng.normal(size=(2, 120))
        fixed = iq_to_int16(grid * 0.1)
        assert fixed.shape == (2, 10, 24)
        assert int16_to_iq(fixed).shape == (2, 120)

    def test_interleaving_order(self):
        grid = np.array([1 + 2j] + [0] * 11) * 0.01
        fixed = iq_to_int16(grid)
        assert fixed.shape == (1, 24)
        assert fixed[0, 0] > 0  # I0
        assert fixed[0, 1] == 2 * fixed[0, 0]  # Q0 = 2 * I0

    def test_clipping_at_full_scale(self):
        grid = np.full(12, 100.0 + 100.0j)
        fixed = iq_to_int16(grid)
        assert fixed.max() == 32767

    def test_rejects_partial_prb(self, rng):
        with pytest.raises(ValueError):
            iq_to_int16(rng.normal(size=13) + 0j)

    @pytest.mark.parametrize(
        "dtype", [np.complex128, np.complex64, np.float64, np.float32]
    )
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "stacked"])
    def test_matches_strided_store_reference(self, rng, dtype, layout):
        """The float-view conversion equals scaling in the input's own
        precision, storing I and Q strided, rounding and saturating."""
        grid = rng.normal(0, 1.5, size=(3, 48)) + 1j * rng.normal(
            0, 1.5, size=(3, 48)
        )
        grid[0, :5] = [0.5 / 8191.75, -0.5 / 8191.75, 1.5 / 8191.75, 9.0, -9.0]
        if not np.issubdtype(dtype, np.complexfloating):
            grid = grid.real
        grid = grid.astype(dtype)
        if layout == "strided":
            grid = np.repeat(grid, 2, axis=-1)[..., ::2]
        elif layout == "contiguous":
            grid = grid[1]
        scaled = grid * (32767.0 * 0.25)
        reference = np.empty(grid.shape[:-1] + (4, 24))
        blocks = scaled.reshape(grid.shape[:-1] + (4, 12))
        reference[..., 0::2] = blocks.real
        reference[..., 1::2] = blocks.imag
        reference = np.clip(np.round(reference), -32768, 32767).astype(np.int16)
        assert np.array_equal(iq_to_int16(grid), reference)

    @settings(max_examples=30, deadline=None)
    @given(backoff=st.floats(min_value=0.05, max_value=0.9))
    def test_backoff_roundtrip_property(self, backoff, ):
        rng = np.random.default_rng(0)
        grid = (rng.normal(size=24) + 1j * rng.normal(size=24)) * 0.2
        restored = int16_to_iq(iq_to_int16(grid, backoff), backoff)
        assert np.abs(restored - grid).max() < 1e-2


class TestResourceGrid:
    def test_default_zero_grid(self):
        grid = ResourceGrid(layers=2, n_prbs=10)
        assert grid.data.shape == (2, 120)
        assert not grid.data.any()

    def test_fill_and_slice(self, rng):
        grid = ResourceGrid(layers=1, n_prbs=20)
        values = rng.normal(size=36) + 1j * rng.normal(size=36)
        grid.fill_prbs(0, 5, values)
        assert (grid.prb_slice(0, 5, 3) == values).all()
        assert not grid.prb_slice(0, 0, 5).any()

    def test_int16_roundtrip(self, rng):
        grid, _ = random_qam_grid(8, layers=2, rng=rng)
        fixed = grid.to_int16(0)
        assert fixed.shape == (8, 24)
        rebuilt = ResourceGrid.from_int16([grid.to_int16(0), grid.to_int16(1)])
        assert np.abs(rebuilt.data - grid.data).max() < 1e-3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ResourceGrid(layers=1, n_prbs=2, data=np.zeros((1, 10)))

    def test_random_qam_grid_decodes(self, rng):
        grid, symbols = random_qam_grid(4, layers=2, order=16, rng=rng)
        modulator = QamModulator(16)
        assert (modulator.demodulate(grid.data) == symbols).all()
