import numpy as np
import pytest

from torusvae import datasets as ds
from torusvae.errors import FormatError


class TestFactorSpec:
    def test_uniform_bounds_validated(self):
        with pytest.raises(ValueError):
            ds.Factor("bad", ds.KIND_UNIFORM, lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            ds.Factor("bad", ds.KIND_UNIFORM, lo=0.0, hi=float("inf"))

    def test_categorical_needs_two(self):
        with pytest.raises(ValueError):
            ds.Factor("bad", ds.KIND_CATEGORICAL, n=1)

    def test_json_round_trip(self):
        spec = ds.SHAPES_SPEC
        assert ds.FactorSpec.from_json(spec.to_json()) == spec


class TestSampleFactors:
    def test_deterministic(self):
        a = ds.sample_factors(ds.SHAPES_SPEC, 100, seed=5)
        b = ds.sample_factors(ds.SHAPES_SPEC, 100, seed=5)
        assert np.array_equal(a, b)

    def test_scale_mean(self):
        z = ds.sample_factors(ds.SHAPES_SPEC, 10_000, seed=7)
        assert z[:, 1].mean() == pytest.approx(30.0, abs=0.5)

    def test_shape_frequencies(self):
        z = ds.sample_factors(ds.SHAPES_SPEC, 10_000, seed=7)
        freqs = np.bincount(z[:, 0].astype(int), minlength=4) / 10_000
        assert np.abs(freqs - 0.25).max() < 0.02

    def test_support(self):
        z = ds.sample_factors(ds.SHAPES_SPEC, 2_000, seed=3)
        assert np.all((z[:, 1] >= 20) & (z[:, 1] <= 40))
        assert np.all((z[:, 2] >= 0) & (z[:, 2] < 2 * np.pi))
        assert np.all((z[:, 3:] >= 0) & (z[:, 3:] <= 1))


class TestRender:
    def test_center_pixel_of_max_square(self):
        image = ds.render_2dshape([1, 40.0, 0.0, 1.0, 0.0, 0.0], 64, 64)
        assert np.array_equal(image[32, 32], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "shape_idx,period", [(1, np.pi / 2), (3, np.pi / 3), (0, 2 * np.pi / 3)]
    )
    def test_rotational_symmetry(self, shape_idx, period):
        for theta in (0.37, 1.91):
            z1 = np.array([shape_idx, 31.7, theta, 0.9, 0.1, 0.4])
            z2 = z1.copy()
            z2[2] += period
            assert np.array_equal(
                ds.render_2dshape(z1, 16, 16), ds.render_2dshape(z2, 16, 16)
            )

    def test_background_is_white(self):
        image = ds.render_2dshape([0, 20.0, 0.5, 0.2, 0.2, 0.2], 32, 32)
        assert np.array_equal(image[0, 0], [1.0, 1.0, 1.0])

    def test_area_monotone_in_scale(self):
        areas = []
        for scale in np.linspace(20, 40, 9):
            image = ds.render_2dshape([2, scale, 0.9, 0.0, 0.0, 1.0], 32, 32)
            areas.append(int((image != 1.0).any(axis=2).sum()))
        assert all(a <= b for a, b in zip(areas, areas[1:]))
        assert areas[0] < areas[-1]

    def test_out_of_support_rejected(self):
        with pytest.raises(ValueError):
            ds.render_2dshape([4, 30.0, 0.0, 0.5, 0.5, 0.5], 16, 16)
        with pytest.raises(ValueError):
            ds.render_2dshape([1, 45.0, 0.0, 0.5, 0.5, 0.5], 16, 16)
        with pytest.raises(ValueError):
            ds.render_2dshape([1, 30.0, 0.0, 1.5, 0.5, 0.5], 16, 16)

    def test_minimum_dimensions(self):
        with pytest.raises(ValueError):
            ds.render_2dshape([1, 30.0, 0.0, 0.5, 0.5, 0.5], 4, 4)

    def test_values_clamped(self):
        image = ds.render_2dshape([3, 35.0, 1.2, 0.0, 1.0, 0.3], 16, 16)
        assert image.min() >= 0.0 and image.max() <= 1.0


class TestSyntheticMap:
    def test_deterministic(self):
        xa, za, _ = ds.synthetic_map_dataset(3, 100, seed=21)
        xb, zb, _ = ds.synthetic_map_dataset(3, 100, seed=21)
        assert np.array_equal(xa, xb) and np.array_equal(za, zb)

    def test_angular_periodicity_of_features(self):
        spec = ds.synthetic_spec(4)
        z = ds.sample_factors(spec, 50, seed=2)
        shifted = z.copy()
        shifted[:, 0] += 2 * np.pi
        a = ds._synthetic_features(spec, z)
        b = ds._synthetic_features(spec, shifted)
        assert np.abs(a - b).max() < 1e-12

    def test_mix_of_kinds(self):
        spec = ds.synthetic_spec(5)
        kinds = [f.kind for f in spec.factors]
        assert kinds == [ds.KIND_ANGLE, ds.KIND_UNIFORM] * 2 + [ds.KIND_ANGLE]

    def test_mutual_distinctness(self, rng):
        x, z, spec = ds.synthetic_map_dataset(3, 2000, seed=21)
        pairs = rng.integers(0, 2000, size=(3000, 2))
        hits = total = 0
        for i, j in pairs:
            if i == j:
                continue
            gaps = []
            for idx, factor in enumerate(spec.factors):
                diff = abs(z[i, idx] - z[j, idx])
                if factor.kind == ds.KIND_ANGLE:
                    diff = min(diff % (2 * np.pi), 2 * np.pi - diff % (2 * np.pi))
                gaps.append(diff)
            if max(gaps) > 0.1:
                total += 1
                hits += np.linalg.norm(x[i] - x[j]) > 1e-3
        assert hits / total >= 0.99

    def test_sample_range_fits_decoder(self):
        x, _, _ = ds.synthetic_map_dataset(5, 500, seed=9)
        assert np.all(np.abs(x) < 1.0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ds.synthetic_map_dataset(9, 10, seed=1)

    def test_noise_is_seeded(self):
        xa, _, _ = ds.synthetic_map_dataset(2, 50, seed=4, noise_sigma=0.1)
        xb, _, _ = ds.synthetic_map_dataset(2, 50, seed=4, noise_sigma=0.1)
        assert np.array_equal(xa, xb)


class TestDatasetIo:
    def test_round_trip_bit_identical(self, tmp_path):
        data = ds.make_synthetic_dataset(3, 60, seed=9)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        loaded = ds.load_dataset(path)
        assert np.array_equal(data.samples.astype("<f4"), loaded.samples.astype("<f4"))
        assert np.array_equal(data.factors, loaded.factors)
        assert loaded.spec == data.spec
        ds.save_dataset(loaded, tmp_path / "again.tdds")
        assert (tmp_path / "again.tdds").read_bytes() == path.read_bytes()

    def test_save_deterministic(self, tmp_path):
        data = ds.make_2dshapes_dataset(10, seed=3, width=8, height=8)
        ds.save_dataset(data, tmp_path / "a")
        ds.save_dataset(data, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tdds"
        path.write_bytes(b"WRONG" + b"\x00" * 40)
        with pytest.raises(FormatError):
            ds.load_dataset(path)

    def test_truncation_detected(self, tmp_path):
        data = ds.make_synthetic_dataset(2, 20, seed=1)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        blob = path.read_bytes()
        for cut in (3, 12, 30, len(blob) - 5):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                ds.load_dataset(path)

    def test_record_count_cross_checked(self, tmp_path):
        data = ds.make_synthetic_dataset(2, 20, seed=1)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        blob = bytearray(path.read_bytes())
        # header N lives right after the magic; bump it by one record
        import struct

        n = struct.unpack_from("<I", blob, 5)[0]
        struct.pack_into("<I", blob, 5, n + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            ds.load_dataset(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_oversized_record_fails_before_allocating(self, tmp_path, n):
        import struct
        import tracemalloc

        data = ds.make_synthetic_dataset(2, 1, seed=1)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        blob = bytearray(path.read_bytes())
        # width = height = channels = 65535: a record of about 1.1 PB
        struct.pack_into("<IIII", blob, 5, n, 65535, 65535, 65535)
        path.write_bytes(bytes(blob[: len(blob) - (8 * 2 + 4 * data.samples.shape[1])]))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                ds.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPpm:
    def test_header_and_payload(self, tmp_path):
        image = np.zeros((2, 3, 3))
        image[0, 0] = (1.0, 0.5, 0.0)
        path = tmp_path / "img.ppm"
        ds.write_ppm(image, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n3 2\n255\n")
        payload = blob[len(b"P6\n3 2\n255\n") :]
        assert len(payload) == 2 * 3 * 3
        assert payload[0] == 255
        assert payload[1] == 128  # 0.5 * 255 = 127.5 rounds half-up

    def test_rounding_half_up(self, tmp_path):
        image = np.full((1, 1, 3), 127.5 / 255.0)
        path = tmp_path / "r.ppm"
        ds.write_ppm(image, path)
        assert path.read_bytes()[-3:] == bytes([128, 128, 128])
