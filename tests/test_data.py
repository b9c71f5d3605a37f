import csv
import hashlib
import math
import warnings
from importlib import resources

import numpy as np
import pytest

from signet.data import (DataError, Dataset, NoiseSpec, franke, halton_points,
                         load_dataset_csv, load_digits_csv, make_binary_task,
                         make_franke_datasets, save_dataset_csv)

from conftest import reference_halton_points


class TestHalton:
    @pytest.mark.parametrize("index,base,expected", [
        (1, 2, 0.5), (2, 2, 0.25), (3, 2, 0.75),
        (1, 3, 1 / 3), (2, 3, 2 / 3), (3, 3, 1 / 9),
    ])
    def test_radical_inverse(self, index, base, expected):
        column = (2, 3).index(base)
        assert halton_points(index, 1)[0, column] == pytest.approx(expected, abs=1e-15)

    def test_distinct_and_in_unit_interval(self):
        vals = halton_points(1, 1000)[:, 0]
        assert np.unique(vals).size == 1000
        assert np.all((vals > 0) & (vals < 1))

    def test_range_large_indices(self):
        points = halton_points(1, 10_000)
        assert np.all((points > 0) & (points < 1))

    def test_zero_index_rejected(self):
        with pytest.raises(DataError):
            halton_points(0, 2)

    @pytest.mark.parametrize("start,count", [(1, 10_000), (290, 121)])
    def test_bitwise_equal_to_scalar_reference(self, start, count):
        assert np.array_equal(halton_points(start, count),
                              reference_halton_points(start, count))


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
        # test points continue the Halton stream after the training block
        assert np.allclose(test.inputs, halton_points(290, 121))
        assert np.allclose(train.targets,
                           franke(train.inputs[:, 0], train.inputs[:, 1]))

    def test_inputs_bitwise_pinned(self):
        # consecutive Halton points, byte for byte as the scalar loop built them
        train, test = make_franke_datasets()
        assert np.array_equal(train.inputs, reference_halton_points(1, 289))
        assert np.array_equal(test.inputs, reference_halton_points(290, 121))
        digests = [hashlib.sha256(ds.inputs.tobytes()).hexdigest()
                   for ds in (train, test)]
        assert digests == [
            "1ee5af939b0d8f9da498ed25bc068545200be5b5e9e53e28f85d45ce8f062c01",
            "ed01ef028efca317ec7aa6aa218392df217c8d2c84c2907861405d8e922162a5",
        ]

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
        pixels, labels = load_digits_csv()
        assert pixels.shape == (1797, 64) and labels.shape == (1797,)
        assert np.all((pixels >= 0) & (pixels <= 16))
        assert np.issubdtype(labels.dtype, np.integer)
        assert set(np.unique(labels)) == set(range(10))
        # every row equals a row-by-row csv-module parse, the reference
        path = resources.files("signet") / "assets" / "digits.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert np.array_equal(pixels, [[float(v) for v in row[:64]] for row in rows])
        assert np.array_equal(labels, [int(row[64]) for row in rows])

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

    GOOD_ROW = ",".join(["1"] * 64 + ["3"])

    @staticmethod
    def _digits_file(path, *rows):
        header = ",".join([f"p{i}" for i in range(64)] + ["label"])
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def test_blank_line_rejected(self, tmp_path):
        bad = self._digits_file(tmp_path / "blank.csv", self.GOOD_ROW, "",
                                self.GOOD_ROW)
        with pytest.raises(DataError, match=r"blank\.csv:3: expected 65 columns, got 0"):
            load_digits_csv(bad)

    def test_comment_row_rejected(self, tmp_path):
        bad = self._digits_file(tmp_path / "hash.csv", self.GOOD_ROW,
                                "#" + self.GOOD_ROW)
        with pytest.raises(DataError, match=r"hash\.csv:3: unparsable value"):
            load_digits_csv(bad)

    def test_header_only_file_rejected(self, tmp_path):
        bad = self._digits_file(tmp_path / "empty.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy's "no data" must not escape
            with pytest.raises(DataError, match=r"empty\.csv:2: no data rows"):
                load_digits_csv(bad)

    def test_fractional_label_rejected(self, tmp_path):
        bad = self._digits_file(tmp_path / "label.csv", self.GOOD_ROW,
                                ",".join(["1"] * 64 + ["3.5"]))
        with pytest.raises(DataError, match=r"label\.csv:3: label 3\.5 outside 0\.\.9"):
            load_digits_csv(bad)

    def test_first_bad_row_is_named(self, tmp_path):
        bad = self._digits_file(tmp_path / "two.csv", self.GOOD_ROW,
                                ",".join(["1"] * 64 + ["12"]),
                                ",".join(["17"] + ["1"] * 63 + ["3"]))
        with pytest.raises(DataError, match=r"two\.csv:3: label 12 outside"):
            load_digits_csv(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_digits_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("pair,sizes", [
        ((0, 1), (252, 108)), ((2, 5), (251, 108)),
        ((3, 7), (253, 109)), ((6, 9), (252, 109)),
    ])
    def test_paper_split_sizes(self, pair, sizes):
        digits = load_digits_csv()
        train, test = make_binary_task(digits, *pair, seed=0)
        assert (train.m, test.m) == sizes

    def test_benchmark_set_up_call(self):
        # the positional call the benchmark harness times as its set-up
        train, test = make_binary_task(load_digits_csv(), 0, 1, 0.7, 0, True)
        assert (train.m, test.m) == (252, 108)
        assert train.inputs.max() <= 1.0

    def test_pair_rows_in_file_order(self):
        pixels, labels = load_digits_csv()
        rows = np.flatnonzero(np.isin(labels, (3, 7)))
        full, _ = make_binary_task((pixels, labels), 3, 7,
                                   train_fraction=(rows.size - 1) / rows.size)
        assert full.m == rows.size - 1
        order = np.random.default_rng(0).permutation(rows.size)[:full.m]
        assert np.array_equal(full.inputs, pixels[rows[order]])
        assert np.array_equal(full.targets,
                              np.where(labels[rows[order]] == 3, 1.0, -1.0))

    def test_label_mapping_and_reproducibility(self):
        digits = load_digits_csv()
        a_train, a_test = make_binary_task(digits, 3, 7, seed=11)
        b_train, b_test = make_binary_task(digits, 3, 7, seed=11)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.targets, b_test.targets)
        assert set(np.unique(a_train.targets)) == {-1.0, 1.0}
        count = int(np.sum(np.isin(digits[1], (3, 7))))
        assert a_train.m + a_test.m == count

    def test_same_digit_rejected(self):
        digits = load_digits_csv()
        with pytest.raises(DataError):
            make_binary_task(digits, 4, 4)

    def test_normalize_flag(self):
        digits = load_digits_csv()
        raw, _ = make_binary_task(digits, 0, 1, seed=0)
        norm, _ = make_binary_task(digits, 0, 1, seed=0, normalize=True)
        assert np.allclose(norm.inputs, raw.inputs / 16.0)
        assert norm.inputs.max() <= 1.0


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path, rng):
        ds = Dataset(rng.uniform(0, 1, (13, 2)), rng.normal(size=13))
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

    @pytest.mark.parametrize("body,message", [
        ("0.5,1.0\n\n0.25,2.0\n", r"bad\.csv:3: expected 2 columns, got 0"),
        ("0.5,1.0\n#0.25,2.0\n", r"bad\.csv:3: unparsable value"),
        ("0.5,1.0\n0.25\n", r"bad\.csv:3: expected 2 columns, got 1"),
        ("", r"bad\.csv:2: no data rows"),
    ])
    def test_bad_line_named(self, tmp_path, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                load_dataset_csv(bad)

    def test_saved_bytes(self, tmp_path):
        # 17 significant digits, shortest exponent form, CRLF line ends
        ds = Dataset(np.array([[0.1, -0.0], [1 / 3, 1e-300]]), np.array([1.0, -1.0]))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        assert path.read_bytes() == (b"x0,x1,y\r\n0.10000000000000001,-0,1\r\n"
                                     b"0.33333333333333331,1e-300,-1\r\n")

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_dataset_csv(bad)
