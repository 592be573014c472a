import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusvae import cli, datasets as ds
from torusvae.errors import FormatError
from helpers import traced_peak


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

    @pytest.mark.parametrize("lo", ["1" + "0" * 400, "1" + "0" * 30],
                             ids=["beyond-float", "beyond-int64"])
    def test_huge_integer_bounds_are_value_errors(self, lo):
        # beyond a float, or beyond int64 where numpy would see an object
        with pytest.raises(ValueError):
            ds.FactorSpec.from_json(f'[{{"name": "a", "kind": "uniform", "lo": {lo}, "hi": 2}}]')


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


def render(z, width, height):
    """One factor row through render_batch, as an (H, W, 3) image."""
    return ds.render_batch(np.array([z], dtype=float), width, height).reshape(height, width, 3)


def _oracle_vertices(z, width, height):
    sides = int(z[0]) + 3
    radius = z[1] * width / 64.0
    angles = z[2] + 2 * np.pi * np.arange(sides) / sides
    return width / 2.0 + radius * np.cos(angles), height / 2.0 + radius * np.sin(angles)


def _oracle_fill(vx, vy, width, height):
    """Even-odd coverage of pixel centers (x+0.5, y+0.5), one edge at a time."""
    px = np.arange(width) + 0.5
    py = (np.arange(height) + 0.5)[:, None]
    inside = np.zeros((height, width), dtype=bool)
    n = len(vx)
    for i in range(n):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % n], vy[(i + 1) % n]
        if y1 == y2:
            continue
        crosses_row = (y1 > py) != (y2 > py)
        x_at_row = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses_row & (px[None, :] < x_at_row)
    return inside


def oracle_batch(factors, width, height):
    """The per-image rasterizer that render_batch replaced, one polygon per iteration."""
    images = []
    for z in np.asarray(factors, dtype=float):
        image = np.ones((height, width, 3))
        image[_oracle_fill(*_oracle_vertices(z, width, height), width, height)] = z[3:]
        images.append(image.ravel())
    return np.stack(images)


class TestRender:
    def test_center_pixel_of_max_square(self):
        image = render([1, 40.0, 0.0, 1.0, 0.0, 0.0], 64, 64)
        assert np.array_equal(image[32, 32], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "shape_idx,period", [(1, np.pi / 2), (3, np.pi / 3), (0, 2 * np.pi / 3)]
    )
    def test_rotational_symmetry(self, shape_idx, period):
        for theta in (0.37, 1.91):
            z1 = np.array([shape_idx, 31.7, theta, 0.9, 0.1, 0.4])
            z2 = z1.copy()
            z2[2] += period
            assert np.array_equal(render(z1, 16, 16), render(z2, 16, 16))

    def test_background_is_white(self):
        image = render([0, 20.0, 0.5, 0.2, 0.2, 0.2], 32, 32)
        assert np.array_equal(image[0, 0], [1.0, 1.0, 1.0])

    def test_area_monotone_in_scale(self):
        areas = []
        for scale in np.linspace(20, 40, 9):
            image = render([2, scale, 0.9, 0.0, 0.0, 1.0], 32, 32)
            areas.append(int((image != 1.0).any(axis=2).sum()))
        assert all(a <= b for a, b in zip(areas, areas[1:]))
        assert areas[0] < areas[-1]

    def test_out_of_support_rejected(self):
        with pytest.raises(ValueError):
            render([4, 30.0, 0.0, 0.5, 0.5, 0.5], 16, 16)
        with pytest.raises(ValueError):
            render([1, 45.0, 0.0, 0.5, 0.5, 0.5], 16, 16)
        with pytest.raises(ValueError):
            render([1, 30.0, 0.0, 1.5, 0.5, 0.5], 16, 16)

    def test_minimum_dimensions(self):
        with pytest.raises(ValueError):
            render([1, 30.0, 0.0, 0.5, 0.5, 0.5], 4, 4)

    def test_values_clamped(self):
        image = render([3, 35.0, 1.2, 0.0, 1.0, 0.3], 16, 16)
        assert image.min() >= 0.0 and image.max() <= 1.0

    # Rotation 0 triangles put a vertex on the pixel-center row of an odd
    # height; squares at pi/4 and hexagons at rotation 0 have exactly
    # horizontal edges.
    SPECIAL_ROWS = np.array(
        [[0, s, 0.0, 0.3, 0.6, 0.9] for s in (20.0, 30.0, 40.0)]
        + [[1, s, r, 0.1, 0.2, 0.3] for s in (20.0, 30.0, 40.0) for r in (0.0, np.pi / 4)]
        + [[3, s, 0.0, 0.5, 0.5, 0.5] for s in (20.0, 30.0, 40.0)]
    )

    @pytest.mark.parametrize("width,height", [(8, 8), (16, 16), (64, 64), (17, 23)])
    def test_matches_per_image_oracle_bit_for_bit(self, width, height):
        for seed in (0, 1, 2, 501):
            factors = ds.sample_factors(ds.SHAPES_SPEC, 40, seed)
            factors = np.concatenate([factors, self.SPECIAL_ROWS])
            assert set(factors[:, 0]) == {0.0, 1.0, 2.0, 3.0}
            batch = ds.render_batch(factors, width, height)
            assert batch.shape == (len(factors), width * height * 3)
            expected = oracle_batch(factors, width, height)
            assert np.array_equal(batch.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("width,height", [(8, 8), (16, 16), (64, 64), (17, 23)])
    def test_float32_out_is_the_rounded_result(self, width, height):
        """Rendered into the strided float32 pixel field of file records, the
        images are bit for bit the float64 result rounded to float32."""
        for seed in (0, 1, 2, 501):
            factors = ds.sample_factors(ds.SHAPES_SPEC, 40, seed)
            factors = np.concatenate([factors, self.SPECIAL_ROWS])
            records = np.empty(len(factors), dtype=[("z", "<f8", (6,)),
                                                    ("x", "<f4", (width * height * 3,))])
            out = ds.render_batch(factors, width, height, out=records["x"])
            assert out is not None and np.shares_memory(out, records)
            expected = ds.render_batch(factors, width, height).astype(np.float32)
            assert np.array_equal(records["x"].view(np.uint32), expected.view(np.uint32))

    def test_out_of_the_wrong_shape_is_rejected(self):
        factors = ds.sample_factors(ds.SHAPES_SPEC, 3, seed=0)
        with pytest.raises(ValueError, match="out must have shape"):
            ds.render_batch(factors, 8, 8, out=np.empty((2, 8 * 8 * 3), dtype=np.float32))

    def test_special_rows_cover_the_edge_cases(self):
        """The parity rows really hold horizontal edges and a pixel-center vertex."""
        horizontal = center_vertex = 0
        for width, height in [(8, 8), (16, 16), (64, 64), (17, 23)]:
            for z in self.SPECIAL_ROWS:
                vx, vy = _oracle_vertices(z, width, height)
                horizontal += int(np.sum(vy == np.roll(vy, -1)))
                center_vertex += int(np.sum(vy - 0.5 == np.floor(vy)))
        assert horizontal > 0 and center_vertex > 0

    # Rotations at which vertices fall on axes or symmetric about them, and
    # large ones whose angles keep few fraction bits.
    SPECIAL_ROTATIONS = (0.0, np.pi / 4, np.pi / 3, np.pi / 2, np.pi, 3 * np.pi / 2,
                         2 * np.pi, 1e6, -1e6, 1e15)
    # Squares with a vertex a rounding error off each axis: on these canvases
    # some crossings fall on pixel centers, where the bits of the crossing
    # depend on which end the edge is traced from.
    AXIS_SQUARES = np.array([[1, s, r, 0.7, 0.2, 0.1] for s in (24.0, 30.0, 32.0)
                             for r in (np.pi, 3 * np.pi / 2, 2 * np.pi)])

    @pytest.mark.parametrize("width,height", [(8, 8), (9, 10), (16, 16), (32, 32), (64, 64)])
    def test_crossings_on_pixel_centers_match_the_oracle(self, width, height):
        batch = ds.render_batch(self.AXIS_SQUARES, width, height)
        expected = oracle_batch(self.AXIS_SQUARES, width, height)
        assert np.array_equal(batch.view(np.uint64), expected.view(np.uint64))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rows=st.lists(st.tuples(st.integers(0, 3),
                                   st.sampled_from((20.0, 30.0, 40.0)) | st.floats(20.0, 40.0),
                                   st.sampled_from(SPECIAL_ROTATIONS),
                                   st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=8),
           width=st.integers(8, 96), height=st.integers(8, 96))
    def test_each_pixel_row_crosses_zero_or_two_edges(self, rows, width, height):
        """The span fill's premise, on rows drawn at special rotations: under
        the half-open rule every pixel-center row crosses 0 or 2 edges of the
        oracle's polygon, so one span per row is its even-odd fill."""
        factors = np.concatenate([np.array(rows, dtype=float), self.SPECIAL_ROWS,
                                  self.AXIS_SQUARES])
        py = (np.arange(height) + 0.5)[:, None]
        for z in factors:
            _, vy = _oracle_vertices(z, width, height)
            crossings = ((vy > py) != (np.roll(vy, -1) > py)).sum(axis=1)
            assert set(crossings.tolist()) <= {0, 2}, (z, width, height)
        batch = ds.render_batch(factors, width, height)
        expected = oracle_batch(factors, width, height)
        assert np.array_equal(batch.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("width", [1, 7, 16])
    def test_span_mask_is_the_comparison_of_every_centre(self, width, rng):
        """The table mask is the bits of comparing each pixel centre with a
        row's span, for infinite ends, ends on exact centres, ends outside
        [0, width] and spans whose first column is past their end."""
        centres = np.arange(width) + 0.5
        ends = np.concatenate([[-np.inf, np.inf, -3.0, 0.0, width, width + 2.5],
                               centres, centres - 0.5, np.nextafter(centres, np.inf),
                               rng.uniform(-1.0, width + 1.0, 40)])
        lo, hi = np.meshgrid(ends, ends)  # every pair of ends, as (rows, spans) arrays
        expected = (lo[..., None] <= centres) & (centres < hi[..., None])
        mask = ds._span_mask(lo, hi, width)
        assert mask.dtype == bool and np.array_equal(mask, expected)
        assert (lo > hi).any() and not mask[lo >= hi].any()

    def _rejects(self, row, match, width=16, height=16):
        """render_batch raises on a batch whose rows 2 and 4 are `row`; the message names row 2."""
        factors = np.tile([1, 30.0, 0.0, 0.5, 0.5, 0.5], (5, 1))
        factors[[2, 4]] = row
        with pytest.raises(ValueError, match=match):
            ds.render_batch(factors, width, height)

    @pytest.mark.parametrize("shape", [(6,), (3, 5), (3, 7), (0, 6), (2, 3, 6)])
    def test_rejects_rows_that_are_not_n_by_6(self, shape):
        with pytest.raises(ValueError, match="N, 6"):
            ds.render_batch(np.full(shape, 0.5), 16, 16)

    @pytest.mark.parametrize("shape_idx", [4, -1, 1.5, np.nan])
    def test_rejects_shape_index(self, shape_idx):
        self._rejects([shape_idx, 30.0, 0.0, 0.5, 0.5, 0.5], "row 2: shape index")

    @pytest.mark.parametrize("scale", [19.99, 40.01, np.nan, np.inf])
    def test_rejects_scale(self, scale):
        self._rejects([1, scale, 0.0, 0.5, 0.5, 0.5], r"row 2: scale outside \[20, 40\]")

    @pytest.mark.parametrize("rotation", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, rotation):
        self._rejects([1, 30.0, rotation, 0.5, 0.5, 0.5], "row 2: non-finite rotation")

    @pytest.mark.parametrize("channel", [3, 4, 5])
    @pytest.mark.parametrize("value", [-0.01, 1.01, np.nan])
    def test_rejects_color(self, channel, value):
        row = [1, 30.0, 0.0, 0.5, 0.5, 0.5]
        row[channel] = value
        self._rejects(row, r"row 2: color channels must lie in \[0, 1\]")

    @pytest.mark.parametrize("width,height", [(7, 16), (16, 7)])
    def test_rejects_small_canvas(self, width, height):
        self._rejects([1, 30.0, 0.0, 0.5, 0.5, 0.5], "dimensions must be >= 8", width, height)

    def test_peak_memory_is_the_output(self):
        """No per-image list and no stacked copy: the output is the only large buffer."""
        import tracemalloc

        factors = ds.sample_factors(ds.SHAPES_SPEC, 200, seed=6)
        tracemalloc.start()
        try:
            out = ds.render_batch(factors, 32, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes


def oracle_save(dataset, path):
    """The one-shot writer that the block writer replaced: every record built
    in one array, then written after the header."""
    spec_blob = dataset.spec.to_json().encode("utf-8")
    pixels = dataset.width * dataset.height * dataset.channels
    records = np.empty(dataset.n, dtype=[("z", "<f8", (dataset.spec.k,)),
                                         ("x", "<f4", (pixels,))])
    records["z"] = dataset.factors
    records["x"] = dataset.x
    with open(path, "wb") as fh:
        fh.write(ds.DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", dataset.n, dataset.width, dataset.height,
                             dataset.channels, dataset.spec.k))
        fh.write(struct.pack("<I", len(spec_blob)))
        fh.write(spec_blob)
        fh.write(records.tobytes())


def generate_config(tmp_path, block):
    """A config file that generates a dataset block as tmp_path/out/data.tdds."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "out"),
                                  "dataset": dict(block, path="data.tdds")}))
    return config


def generate(tmp_path, block):
    """Run the generate command on a dataset block; the path it wrote."""
    assert cli.main(["generate", "--config", str(generate_config(tmp_path, block))]) == 0
    return tmp_path / "out" / "data.tdds"


# Record counts around the block size b: one record, one block less or more
# one record, and two whole blocks and a part.
BLOCK_COUNTS = {"1": lambda b: 1, "b-1": lambda b: b - 1, "b": lambda b: b,
                "b+1": lambda b: b + 1, "2b+3": lambda b: 2 * b + 3}


class TestStreamedWrite:
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("width,height", [(8, 8), (17, 23), (64, 64)])
    def test_2dshapes_bytes_match_the_one_shot_writer(self, tmp_path, width, height, count):
        block = ds.RECORD_BLOCK_BYTES // ds.record_bytes(6, width * height * 3)
        n = BLOCK_COUNTS[count](block)
        path = generate(tmp_path, {"kind": "2dshapes", "count": n, "seed": 17,
                                   "width": width, "height": height})
        in_memory = ds.shapes_source(n, seed=17, width=width, height=height).render()
        oracle_save(in_memory, tmp_path / "oracle.tdds")
        ds.save_dataset(in_memory, tmp_path / "in_memory.tdds")
        expected = (tmp_path / "oracle.tdds").read_bytes()
        assert path.read_bytes() == expected
        assert (tmp_path / "in_memory.tdds").read_bytes() == expected

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_synthetic_bytes_match_the_one_shot_writer(self, tmp_path, count):
        block = ds.RECORD_BLOCK_BYTES // ds.record_bytes(3, ds.SYNTHETIC_SAMPLE_DIM)
        n = BLOCK_COUNTS[count](block)
        path = generate(tmp_path, {"kind": "synthetic", "count": n, "seed": 17,
                                   "factors": 3, "noise_sigma": 0.05})
        oracle_save(ds.make_synthetic_dataset(3, n, seed=17, noise_sigma=0.05),
                    tmp_path / "oracle.tdds")
        assert path.read_bytes() == (tmp_path / "oracle.tdds").read_bytes()

    def test_generate_peak_memory_does_not_grow_with_count(self, tmp_path):
        """A 64-px generate holds one block of records, not the whole file.

        Each generate is traced in a fresh interpreter, so that what the tests
        before this one left behind in the process does not count toward it.
        """
        peaks = [traced_peak("generate", generate_config(tmp_path / str(count), {
            "kind": "2dshapes", "count": count, "seed": 5, "width": 64, "height": 64}))
            for count in (300, 600)]
        # 600 records are 28 MiB of file; one block of them is 4 MiB, and the
        # render of a block needs about 0.6 MiB more.
        assert max(peaks) <= 6 * 2**20
        assert peaks[1] <= peaks[0] + 2**16


class TestSyntheticMap:
    def test_deterministic(self):
        a = ds.make_synthetic_dataset(3, 100, seed=21)
        b = ds.make_synthetic_dataset(3, 100, seed=21)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.factors, b.factors)

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
        data = ds.make_synthetic_dataset(3, 2000, seed=21)
        x, z, spec = data.x, data.factors, data.spec
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
        x = ds.make_synthetic_dataset(5, 500, seed=9).x
        assert np.all(np.abs(x) < 1.0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ds.make_synthetic_dataset(9, 10, seed=1)

    def test_noise_is_seeded(self):
        xa = ds.make_synthetic_dataset(2, 50, seed=4, noise_sigma=0.1).x
        xb = ds.make_synthetic_dataset(2, 50, seed=4, noise_sigma=0.1).x
        assert np.array_equal(xa, xb)


class TestDatasetIo:
    def test_round_trip_bit_identical(self, tmp_path):
        data = ds.make_synthetic_dataset(3, 60, seed=9)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        loaded = ds.load_dataset(path)
        assert np.array_equal(data.x.astype("<f4"), loaded.x.astype("<f4"))
        assert np.array_equal(data.factors, loaded.factors)
        assert loaded.spec == data.spec
        ds.save_dataset(loaded, tmp_path / "again.tdds")
        assert (tmp_path / "again.tdds").read_bytes() == path.read_bytes()

    def test_save_deterministic(self, tmp_path):
        data = ds.shapes_source(10, seed=3, width=8, height=8).render()
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
        n = struct.unpack_from("<I", blob, 5)[0]
        struct.pack_into("<I", blob, 5, n + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            ds.load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("field,what", [("x", "pixel"), ("factors", "factor")])
    def test_non_finite_value_rejected(self, tmp_path, field, what, value):
        data = ds.make_synthetic_dataset(2, 20, seed=1)
        getattr(data, field)[7, 1] = value
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        with pytest.raises(FormatError, match=f"non-finite {what}"):
            ds.load_dataset(path)

    def test_save_peak_memory_is_the_payload(self, tmp_path):
        """The records are built once and written from their own buffer."""
        import tracemalloc

        data = ds.shapes_source(200, seed=4, width=32, height=32).render()
        payload = data.n * (8 * data.spec.k + 4 * data.x.shape[1])
        path = tmp_path / "data.tdds"
        tracemalloc.start()
        try:
            ds.save_dataset(data, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > payload
        assert peak <= 1.25 * payload

    def test_load_peak_memory(self, tmp_path):
        """The records are read in place and the pixels stay in the file
        buffer as float32: no copy of the payload is made."""
        import tracemalloc

        data = ds.shapes_source(200, seed=4, width=32, height=32).render()
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        tracemalloc.start()
        try:
            loaded = ds.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.x.dtype == np.float32
        assert peak <= 1.05 * path.stat().st_size

    @pytest.mark.parametrize("n", [0, 1])
    def test_oversized_record_fails_before_allocating(self, tmp_path, n):
        import tracemalloc

        data = ds.make_synthetic_dataset(2, 1, seed=1)
        path = tmp_path / "data.tdds"
        ds.save_dataset(data, path)
        blob = bytearray(path.read_bytes())
        # width = height = channels = 65535: a record of about 1.1 PB
        struct.pack_into("<IIII", blob, 5, n, 65535, 65535, 65535)
        path.write_bytes(bytes(blob[: len(blob) - (8 * 2 + 4 * data.x.shape[1])]))
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
