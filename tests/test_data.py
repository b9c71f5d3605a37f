import math

import numpy as np
import pytest

from signet.data import (DataError, Dataset, NoiseSpec, TaskKind, franke,
                         halton, halton_points, load_dataset_csv,
                         load_digits_csv, make_binary_task,
                         make_franke_datasets, save_dataset_csv)


class TestHalton:
    @pytest.mark.parametrize("index,base,expected", [
        (1, 2, 0.5), (2, 2, 0.25), (3, 2, 0.75),
        (1, 3, 1 / 3), (2, 3, 2 / 3), (3, 3, 1 / 9),
    ])
    def test_radical_inverse(self, index, base, expected):
        assert halton(index, base) == pytest.approx(expected, abs=1e-15)

    def test_distinct_and_in_unit_interval(self):
        vals = [halton(k, 2) for k in range(1, 1001)]
        assert len(set(vals)) == 1000
        assert all(0 < v < 1 for v in vals)

    def test_range_large_indices(self):
        for b in (2, 3):
            vals = [halton(k, b) for k in range(1, 10_001)]
            assert all(0 < v < 1 for v in vals)

    def test_zero_index_rejected(self):
        with pytest.raises(DataError):
            halton(0, 2)


class TestFranke:
    def test_value_at_origin(self):
        # independently evaluated four-exponential sum
        t1 = 0.75 * math.exp(-0.25 * (4 + 4))
        t2 = 0.75 * math.exp(-1 / 49 - 1 / 10)
        t3 = 0.5 * math.exp(-0.25 * (49 + 9))
        t4 = -0.2 * math.exp(-16 - 49)
        assert franke(0.0, 0.0) == pytest.approx(t1 + t2 + t3 + t4, abs=1e-12)
        assert franke(0.0, 0.0) == pytest.approx(0.76642, abs=1e-4)

    def test_matches_independent_formula_on_random_points(self, rng):
        for _ in range(50):
            x1, x2 = rng.uniform(0, 1, 2)
            expected = (
                0.75 * math.exp(-((9 * x1 - 2) ** 2 + (9 * x2 - 2) ** 2) / 4)
                + 0.75 * math.exp(-(9 * x1 + 1) ** 2 / 49 - (9 * x2 + 1) ** 2 / 10)
                + 0.5 * math.exp(-((9 * x1 - 7) ** 2 + (9 * x2 - 3) ** 2) / 4)
                - 0.2 * math.exp(-(9 * x1 - 4) ** 2 - (9 * x2 - 7) ** 2)
            )
            assert franke(x1, x2) == pytest.approx(expected, abs=1e-12)


class TestFrankeDatasets:
    def test_default_sizes_and_split(self):
        train, test = make_franke_datasets()
        assert train.m == 289 and test.m == 121
        assert train.task is TaskKind.REGRESSION
        # test points continue the Halton stream after the training block
        assert np.allclose(test.inputs, halton_points(290, 121))
        assert np.allclose(train.targets,
                           franke(train.inputs[:, 0], train.inputs[:, 1]))

    def test_no_noise_deterministic(self):
        a, _ = make_franke_datasets()
        b, _ = make_franke_datasets()
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_noise_bounds_and_mean(self):
        spec = NoiseSpec(sigma_tilde=100.0, seed=3)
        clean, _ = make_franke_datasets()
        noisy, test = make_franke_datasets(noise=spec)
        samples = noisy.targets - clean.targets
        assert np.all(samples >= 0)
        assert np.all(samples <= 3.9894e-3)
        assert 1.7e-3 <= samples.mean() <= 2.3e-3
        # test targets never noised
        _, clean_test = make_franke_datasets()
        assert np.array_equal(test.targets, clean_test.targets)

    def test_noise_distribution_uniform(self):
        spec = NoiseSpec(sigma_tilde=100.0, seed=5)
        samples = spec.sample(10_000)
        assert np.all((samples >= 0) & (samples < spec.amplitude))
        # one-sample Kolmogorov-Smirnov statistic against uniform on [0, amp]
        u = np.sort(samples / spec.amplitude)
        k = np.arange(1, u.size + 1)
        ks = np.max(np.maximum(k / u.size - u, u - (k - 1) / u.size))
        assert ks < 0.1

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            make_franke_datasets(n_train=0)


class TestDigits:
    def test_bundled_file_record_count(self):
        records = load_digits_csv()
        assert len(records) == 1797
        for px, lab in records[:10]:
            assert px.shape == (64,)
            assert 0 <= lab <= 9

    def test_malformed_rows_rejected(self, tmp_path):
        header = ",".join([f"p{i}" for i in range(64)] + ["label"])
        short = tmp_path / "short.csv"
        short.write_text(header + "\n" + ",".join(["1"] * 63) + "\n")
        with pytest.raises(DataError, match="2"):
            load_digits_csv(short)
        bad_label = tmp_path / "label.csv"
        bad_label.write_text(header + "\n" + ",".join(["1"] * 64 + ["10"]) + "\n")
        with pytest.raises(DataError):
            load_digits_csv(bad_label)
        bad_pixel = tmp_path / "pixel.csv"
        bad_pixel.write_text(header + "\n" + ",".join(["17"] + ["1"] * 63 + ["3"]) + "\n")
        with pytest.raises(DataError):
            load_digits_csv(bad_pixel)
        nan_pixel = tmp_path / "nan.csv"
        nan_pixel.write_text(header + "\n" + ",".join(["nan"] + ["1"] * 63 + ["3"]) + "\n")
        with pytest.raises(DataError, match="nan.csv:2: pixel value outside"):
            load_digits_csv(nan_pixel)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_digits_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("pair,sizes", [
        ((0, 1), (252, 108)), ((2, 5), (251, 108)),
        ((3, 7), (253, 109)), ((6, 9), (252, 109)),
    ])
    def test_paper_split_sizes(self, pair, sizes):
        records = load_digits_csv()
        train, test = make_binary_task(records, *pair, seed=0)
        assert (train.m, test.m) == sizes

    def test_label_mapping_and_reproducibility(self):
        records = load_digits_csv()
        a_train, a_test = make_binary_task(records, 3, 7, seed=11)
        b_train, b_test = make_binary_task(records, 3, 7, seed=11)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.targets, b_test.targets)
        assert set(np.unique(a_train.targets)) == {-1.0, 1.0}
        count = sum(1 for _, lab in records if lab in (3, 7))
        assert a_train.m + a_test.m == count

    def test_same_digit_rejected(self):
        records = load_digits_csv()
        with pytest.raises(DataError):
            make_binary_task(records, 4, 4)

    def test_normalize_flag(self):
        records = load_digits_csv()
        raw, _ = make_binary_task(records, 0, 1, seed=0)
        norm, _ = make_binary_task(records, 0, 1, seed=0, normalize=True)
        assert np.allclose(norm.inputs, raw.inputs / 16.0)
        assert norm.inputs.max() <= 1.0


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path, rng):
        ds = Dataset(rng.uniform(0, 1, (13, 2)), rng.normal(size=13),
                     TaskKind.REGRESSION)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x0,y\n0.5,1.0\n0.25,2.0\n{cell},3.0\n")
        with pytest.raises(DataError, match=r"bad\.csv:4: non-finite"):
            load_dataset_csv(bad)
        bad.write_text(f"x0,y\n0.5,{cell}\n")
        with pytest.raises(DataError, match=r"bad\.csv:2: non-finite"):
            load_dataset_csv(bad)

    def test_unparsable_cell_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n0.5,1.0\nabc,3.0\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: unparsable"):
            load_dataset_csv(bad)

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_dataset_csv(bad)
