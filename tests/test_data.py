import csv
import hashlib
import math
import re
from importlib import resources

import numpy as np
import pytest

from signet.data import (Dataset, franke, halton_points,
                         load_digits_csv, make_binary_task, make_franke_datasets,
                         write_csv)

from conftest import reference_halton_points


class TestHalton:
    @pytest.mark.parametrize("index,base,expected", [
        (1, 2, 0.5), (2, 2, 0.25), (3, 2, 0.75),
        (1, 3, 1 / 3), (2, 3, 2 / 3), (3, 3, 1 / 9),
    ])
    def test_radical_inverse(self, index, base, expected):
        column = (2, 3).index(base)
        point = halton_points(index)[-1]
        assert point[column] == pytest.approx(expected, abs=1e-15)

    def test_distinct_and_in_unit_interval(self):
        vals = halton_points(1000)[:, 0]
        assert np.unique(vals).size == 1000
        assert np.all((vals > 0) & (vals < 1))

    def test_range_large_indices(self):
        points = halton_points(10_000)
        assert np.all((points > 0) & (points < 1))

    @pytest.mark.parametrize("start,count", [(1, 10_000), (290, 121)])
    def test_bitwise_equal_to_scalar_reference(self, start, count):
        assert np.array_equal(halton_points(start + count - 1)[start - 1:],
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
        assert np.allclose(test.inputs, halton_points(410)[289:])
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
        clean, _ = make_franke_datasets()
        noisy, test = make_franke_datasets(noise_sigma=100.0, seed=3)
        samples = noisy.targets - clean.targets
        assert np.all(samples >= 0)
        assert np.all(samples <= 3.9894e-3)
        assert 1.7e-3 <= samples.mean() <= 2.3e-3
        # test targets never noised
        _, clean_test = make_franke_datasets()
        assert np.array_equal(test.targets, clean_test.targets)

    def test_noise_distribution_uniform(self):
        amplitude = 1.0 / (math.sqrt(2.0 * math.pi) * 100.0)
        clean, _ = make_franke_datasets(n_train=10_000)
        noisy, _ = make_franke_datasets(n_train=10_000, noise_sigma=100.0, seed=5)
        samples = noisy.targets - clean.targets
        assert np.all((samples >= 0) & (samples < amplitude))
        # one-sample Kolmogorov-Smirnov statistic against uniform on [0, amp]
        u = np.sort(samples / amplitude)
        k = np.arange(1, u.size + 1)
        ks = np.max(np.maximum(k / u.size - u, u - (k - 1) / u.size))
        assert ks < 0.1

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_noise_sigma(self, sigma):
        with pytest.raises(ValueError, match=re.escape(
                f"noise_sigma must be positive and finite, got {sigma}")):
            make_franke_datasets(noise_sigma=sigma)

    def test_noise_seed_picks_the_draws(self):
        a, _ = make_franke_datasets(noise_sigma=10.0, seed=4)
        b, _ = make_franke_datasets(noise_sigma=10.0, seed=4)
        c, _ = make_franke_datasets(noise_sigma=10.0, seed=5)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="dataset sizes must be >= 1"):
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
            header, *rows = csv.reader(fh)
        assert header == [f"p{i}" for i in range(64)] + ["label"]
        assert np.array_equal(pixels, [[float(v) for v in row[:64]] for row in rows])
        assert np.array_equal(labels, [int(row[64]) for row in rows])

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
        # train then test rows are the pair's rows in file order, shuffled
        pixels, labels = load_digits_csv()
        rows = np.flatnonzero(np.isin(labels, (3, 7)))
        train, test = make_binary_task((pixels, labels), 3, 7)
        order = rows[np.random.default_rng(0).permutation(rows.size)]
        assert np.array_equal(np.concatenate([train.inputs, test.inputs]),
                              pixels[order])
        assert np.array_equal(np.concatenate([train.targets, test.targets]),
                              np.where(labels[order] == 3, 1.0, -1.0))

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
        with pytest.raises(ValueError, match="the two digits must differ"):
            make_binary_task(digits, 4, 4)

    def test_pair_split_csv_bytes(self, tmp_path):
        # the 3-7 split is pinned byte for byte: row selection, shuffle and
        # the writer's number format
        digests = {}
        for name, ds in zip(("train", "test"),
                            make_binary_task(load_digits_csv(), 3, 7)):
            path = tmp_path / f"{name}.csv"
            write_csv(path, [f"x{j}" for j in range(ds.d)] + ["y"],
                      np.column_stack([ds.inputs, ds.targets]).tolist())
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == {
            "train": "68d20410f170406dd358f9de8fa7224ae59152b263d30f3eeb0994bd28b29090",
            "test": "570023f2f1204f68c0cab6dbd2cd8bbec22c697d8e167078e5923d7a6d82e21b",
        }

    def test_normalize_flag(self):
        digits = load_digits_csv()
        raw, _ = make_binary_task(digits, 0, 1, seed=0)
        norm, _ = make_binary_task(digits, 0, 1, seed=0, normalize=True)
        assert np.allclose(norm.inputs, raw.inputs / 16.0)
        assert norm.inputs.max() <= 1.0


class TestSplit:
    @pytest.mark.parametrize("fraction, outcome", [
        (0.7, (63, 27)),    # floor(0.7 * 90); 0.7 * 90 evaluates to 62.99999999999999
        (1.0, "degenerate split: 90 of 90"),
        (math.nan, "degenerate split: train fraction nan"),
        (math.inf, "degenerate split: train fraction inf"),
    ], ids=["0.7", "1.0", "nan", "inf"])
    def test_split_dataset(self, fraction, outcome):
        # 90 rows of a made-up two-digit file, split by make_binary_task
        digits = np.arange(180.0).reshape(90, 2), np.arange(90) % 2
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=re.escape(outcome)):
                make_binary_task(digits, 0, 1, fraction)
        else:
            train, test = make_binary_task(digits, 0, 1, fraction)
            assert (train.m, test.m) == outcome


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path, rng):
        # read back with the csv module, as the bundled-file test reads
        ds = Dataset(rng.uniform(0, 1, (13, 2)), rng.normal(size=13))
        path = tmp_path / "ds.csv"
        write_csv(path, ["x0", "x1", "y"],
                  np.column_stack([ds.inputs, ds.targets]).tolist())
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["x0", "x1", "y"]
        back = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(back[:, :2], ds.inputs)
        assert np.array_equal(back[:, 2], ds.targets)

    def test_saved_bytes(self, tmp_path):
        # 17 significant digits, shortest exponent form, CRLF line ends
        path = tmp_path / "ds.csv"
        write_csv(path, ["x0", "x1", "y"],
                  [[0.1, -0.0, 1.0], [1 / 3, 1e-300, -1.0]])
        assert path.read_bytes() == (b"x0,x1,y\r\n0.10000000000000001,-0,1\r\n"
                                     b"0.33333333333333331,1e-300,-1\r\n")
