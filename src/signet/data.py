"""Deterministic dataset construction: Halton points, Franke's surface with
the positive-noise recipe, and digits CSV loading with binary-task splits.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

DIGITS_ASSET = "digits.csv"
DIGITS_HEADER = [f"p{i}" for i in range(64)] + ["label"]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray      # (m, d)
    targets: np.ndarray     # (m,)

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise DataError(f"inconsistent dataset shapes {self.inputs.shape} "
                            f"vs {self.targets.shape}")
        if self.inputs.shape[0] < 1:
            raise DataError("empty dataset")

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Positive noise added to training targets: uniform(0, 1) draws scaled
    by 1/(sqrt(2*pi)*sigma_tilde)."""
    sigma_tilde: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.sigma_tilde < math.inf:
            raise DataError(f"sigma_tilde must be positive and finite, "
                            f"got {self.sigma_tilde}")

    @property
    def amplitude(self) -> float:
        return 1.0 / (math.sqrt(2.0 * math.pi) * self.sigma_tilde)

    def sample(self, count: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.amplitude * rng.uniform(0.0, 1.0, size=count)


def halton_points(start: int, count: int) -> np.ndarray:
    """count consecutive Halton points in bases 2 and 3 from index start >= 1:
    per base, the radical inverse of every index, its digits added from the
    least significant one up."""
    if start < 1:
        raise DataError(f"Halton index must be >= 1, got {start}")
    points = np.zeros((count, 2))
    for col, base in enumerate((2, 3)):
        i = np.arange(start, start + count)
        f = 1.0 / base
        while np.any(i > 0):
            points[:, col] += f * (i % base)
            i //= base
            f /= base
    return points


def franke(x1, x2):
    """Two-peaks-and-a-trough scattered-data test surface on the unit square."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    g = (0.75 * np.exp(-0.25 * ((9 * x1 - 2) ** 2 + (9 * x2 - 2) ** 2))
         + 0.75 * np.exp(-(9 * x1 + 1) ** 2 / 49.0 - (9 * x2 + 1) ** 2 / 10.0)
         + 0.5 * np.exp(-0.25 * ((9 * x1 - 7) ** 2 + (9 * x2 - 3) ** 2))
         - 0.2 * np.exp(-(9 * x1 - 4) ** 2 - (9 * x2 - 7) ** 2))
    return g if g.ndim else float(g)


def make_franke_datasets(n_train: int = 289, n_test: int = 121,
                         noise: NoiseSpec | None = None) -> tuple[Dataset, Dataset]:
    """Train/test sets from consecutive 2-D Halton points (bases 2 and 3),
    targets from Franke's surface; optional positive noise on training
    targets only."""
    if n_train < 1 or n_test < 1:
        raise DataError("dataset sizes must be >= 1")
    X_train = halton_points(1, n_train)
    X_test = halton_points(n_train + 1, n_test)
    y_train = franke(X_train[:, 0], X_train[:, 1])
    y_test = franke(X_test[:, 0], X_test[:, 1])
    if noise is not None:
        y_train = y_train + noise.sample(n_train)
    return Dataset(X_train, y_train), Dataset(X_test, y_test)


def _parse_rows(lines) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # loadtxt's "no data"
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _read_csv(path: Path, kind: str, header_ok, header_hint: str = "") -> np.ndarray:
    """The rows below a CSV's header as one (rows, header columns) float
    array. The rows are parsed in one pass; only if that pass fails or skips
    a blank line are they parsed again one by one, to name the bad line."""
    if not path.exists():
        raise DataError(f"{kind} file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if not header_ok(header):
        raise DataError(f"bad header in {path}{header_hint}")
    body, width = lines[1:], len(header)
    with contextlib.suppress(ValueError):
        values = _parse_rows(body)
        if body and values.shape == (len(body), width):
            return values
    for lineno, line in enumerate(body, start=2):
        try:
            row = _parse_rows([line])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable value ({exc})") from exc
        if row.size != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, got {row.size}")
    raise DataError(f"{path}:2: no data rows below the header")


def load_digits_csv(path=None) -> tuple[np.ndarray, np.ndarray]:
    """Parse the digits CSV (header p0..p63,label) into pixels (N, 64) and
    integer labels (N,), validating pixel range [0, 16] and label range 0..9."""
    path = Path(path if path is not None
                else resources.files("signet") / "assets" / DIGITS_ASSET)
    values = _read_csv(path, "digits", lambda h: h == DIGITS_HEADER,
                       ": expected p0..p63,label")
    pixels, labels = values[:, :64], values[:, 64]
    bad_pixels = ~np.all((pixels >= 0) & (pixels <= 16), axis=1)   # also NaN
    bad_labels = ~np.isin(labels, np.arange(10))
    i = int(np.argmax(bad_pixels | bad_labels))     # the first bad row, if any
    if bad_pixels[i]:
        raise DataError(f"{path}:{i + 2}: pixel value outside [0, 16]")
    if bad_labels[i]:
        raise DataError(f"{path}:{i + 2}: label {labels[i]:g} outside 0..9")
    return pixels, labels.astype(int)


def make_binary_task(digits, digit_pos: int, digit_neg: int,
                     train_fraction: float = 0.7, seed: int = 0,
                     normalize: bool = False) -> tuple[Dataset, Dataset]:
    """Two-digit classification split of load_digits_csv's (pixels, labels):
    the pair's rows in file order, digit_pos -> +1, digit_neg -> -1, split
    by split_dataset. The normalize flag divides pixels by 16."""
    pixels, labels = digits
    if digit_pos == digit_neg:
        raise DataError("the two digits must differ")
    for digit in (digit_pos, digit_neg):
        if not np.any(labels == digit):
            raise DataError(f"digit {digit} absent from the labels")
    keep = (labels == digit_pos) | (labels == digit_neg)
    X = pixels[keep] / 16.0 if normalize else pixels[keep]
    full = Dataset(X, np.where(labels[keep] == digit_pos, 1.0, -1.0))
    return split_dataset(full, train_fraction, seed)


def split_dataset(ds: Dataset, train_fraction: float,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle of the rows, then floor(train_fraction * m) of them
    for training and the rest for testing; both parts must be non-empty."""
    if not math.isfinite(train_fraction):
        raise DataError(f"degenerate split: train fraction {train_fraction}")
    perm = np.random.default_rng(seed).permutation(ds.m)
    # tiny epsilon keeps e.g. 0.7*360 from flooring to 251
    n_train = int(math.floor(train_fraction * ds.m + 1e-9))
    if n_train < 1 or n_train >= ds.m:
        raise DataError(f"degenerate split: {n_train} of {ds.m}")
    X, y = ds.inputs[perm], ds.targets[perm]
    return Dataset(X[:n_train], y[:n_train]), Dataset(X[n_train:], y[n_train:])


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset as x0..x{d-1},y rows of 17-significant-digit floats."""
    header = ",".join([f"x{j}" for j in range(ds.d)] + ["y"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([ds.inputs, ds.targets]), fmt="%.17g",
                   delimiter=",", newline="\r\n", header=header, comments="")


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv; every cell must be a
    finite number."""
    path = Path(path)
    values = _read_csv(path, "dataset", lambda h: h[-1:] == ["y"])
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise DataError(f"{path}:{bad[0] + 2}: non-finite value")
    return Dataset(values[:, :-1], values[:, -1])
