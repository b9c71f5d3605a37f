"""Deterministic dataset construction: Halton points, Franke's surface with
the positive-noise recipe, and digits CSV loading with binary-task splits.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

DIGITS_ASSET = "digits.csv"


class DataError(ValueError):
    pass


class TaskKind(enum.Enum):
    REGRESSION = "regression"
    BINARY = "binary"


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray      # (m, d)
    targets: np.ndarray     # (m,)
    task: TaskKind

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise DataError(f"inconsistent dataset shapes {self.inputs.shape} "
                            f"vs {self.targets.shape}")
        if self.inputs.shape[0] < 1:
            raise DataError("empty dataset")
        if self.task is TaskKind.BINARY and not np.all(np.isin(self.targets, (-1.0, 1.0))):
            raise DataError("binary targets must be in {-1, +1}")

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
        if self.sigma_tilde <= 0:
            raise DataError(f"sigma_tilde must be positive, got {self.sigma_tilde}")

    @property
    def amplitude(self) -> float:
        return 1.0 / (math.sqrt(2.0 * math.pi) * self.sigma_tilde)

    def sample(self, count: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.amplitude * rng.uniform(0.0, 1.0, size=count)


def halton(index: int, base: int) -> float:
    """Radical inverse of index in the given base (1-indexed sequence)."""
    if index < 1:
        raise DataError(f"halton index must be >= 1, got {index}")
    if base < 2:
        raise DataError(f"halton base must be >= 2, got {base}")
    result = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def halton_points(start: int, count: int, bases=(2, 3)) -> np.ndarray:
    """count consecutive Halton points, indices start..start+count-1."""
    return np.array([[halton(k, b) for b in bases]
                     for k in range(start, start + count)])


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
    return (Dataset(X_train, y_train, TaskKind.REGRESSION),
            Dataset(X_test, y_test, TaskKind.REGRESSION))


def default_digits_path() -> Path:
    return Path(str(resources.files("signet").joinpath("assets", DIGITS_ASSET)))


def load_digits_csv(path=None) -> list[tuple[np.ndarray, int]]:
    """Parse the digits CSV (header p0..p63,label) into (pixels, label)
    records, validating pixel range [0, 16] and label range 0..9."""
    path = Path(path) if path is not None else default_digits_path()
    if not path.exists():
        raise DataError(f"digits file not found: {path}")
    expected_header = [f"p{i}" for i in range(64)] + ["label"]
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise DataError(f"bad header in {path}: expected p0..p63,label")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 65:
                raise DataError(f"{path}:{lineno}: expected 65 columns, got {len(row)}")
            try:
                pixels = np.array([float(v) for v in row[:64]])
                label = int(row[64])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable value ({exc})") from exc
            if not np.all((pixels >= 0) & (pixels <= 16)):     # also rejects NaN
                raise DataError(f"{path}:{lineno}: pixel value outside [0, 16]")
            if not 0 <= label <= 9:
                raise DataError(f"{path}:{lineno}: label {label} outside 0..9")
            records.append((pixels, label))
    return records


def make_binary_task(records, digit_pos: int, digit_neg: int,
                     train_fraction: float = 0.7, seed: int = 0,
                     normalize: bool = False) -> tuple[Dataset, Dataset]:
    """Two-digit classification split: digit_pos -> +1, digit_neg -> -1,
    split by split_dataset. The normalize flag divides pixels by 16."""
    if digit_pos == digit_neg:
        raise DataError("the two digits must differ")
    selected = [(px, +1.0 if lab == digit_pos else -1.0)
                for px, lab in records if lab in (digit_pos, digit_neg)]
    for digit in (digit_pos, digit_neg):
        if not any(lab == digit for _, lab in records):
            raise DataError(f"digit {digit} absent from records")
    X = np.array([px for px, _ in selected])
    if normalize:
        X = X / 16.0
    full = Dataset(X, np.array([t for _, t in selected]), TaskKind.BINARY)
    return split_dataset(full, train_fraction, seed)


def split_dataset(ds: Dataset, train_fraction: float,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle of the rows, then floor(train_fraction * m) of them
    for training and the rest for testing; both parts must be non-empty."""
    perm = np.random.default_rng(seed).permutation(ds.m)
    # tiny epsilon keeps e.g. 0.7*360 from flooring to 251
    n_train = int(math.floor(train_fraction * ds.m + 1e-9))
    if n_train < 1 or n_train >= ds.m:
        raise DataError(f"degenerate split: {n_train} of {ds.m}")
    X, y = ds.inputs[perm], ds.targets[perm]
    return (Dataset(X[:n_train], y[:n_train], ds.task),
            Dataset(X[n_train:], y[n_train:], ds.task))


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset as x0..x{d-1},y rows with 17-significant-digit floats."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.d)] + ["y"])
        for xi, yi in zip(ds.inputs, ds.targets):
            writer.writerow([f"{v:.17g}" for v in xi] + [f"{yi:.17g}"])


def load_dataset_csv(path, task: TaskKind = TaskKind.REGRESSION) -> Dataset:
    """Read a dataset written by save_dataset_csv; every cell must be a
    finite number."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "y":
            raise DataError(f"bad header in {path}")
        d = len(header) - 1
        rows, targets = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise DataError(f"{path}:{lineno}: expected {d + 1} columns")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable value ({exc})") from exc
            if not all(map(math.isfinite, values)):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(values[:d])
            targets.append(values[d])
    return Dataset(np.array(rows), np.array(targets), task)
