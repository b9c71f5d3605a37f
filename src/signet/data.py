"""The paper's two datasets: Franke's surface at Halton points, with the
positive-noise recipe, and the bundled digits file with its binary-task
splits; and the one CSV writer, for result files.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray      # (m, d)
    targets: np.ndarray     # (m,)

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(f"inconsistent dataset shapes {self.inputs.shape} "
                             f"vs {self.targets.shape}")
        if self.inputs.shape[0] < 1:
            raise ValueError("empty dataset")

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def halton_points(count: int) -> np.ndarray:
    """The first count Halton points in bases 2 and 3, indices 1..count:
    per base, the radical inverse of every index, its digits added from the
    least significant one up."""
    points = np.zeros((count, 2))
    for col, base in enumerate((2, 3)):
        i = np.arange(1, count + 1)
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
    return (0.75 * np.exp(-0.25 * ((9 * x1 - 2) ** 2 + (9 * x2 - 2) ** 2))
            + 0.75 * np.exp(-(9 * x1 + 1) ** 2 / 49.0 - (9 * x2 + 1) ** 2 / 10.0)
            + 0.5 * np.exp(-0.25 * ((9 * x1 - 7) ** 2 + (9 * x2 - 3) ** 2))
            - 0.2 * np.exp(-(9 * x1 - 4) ** 2 - (9 * x2 - 7) ** 2))


def make_franke_datasets(n_train: int = 289, n_test: int = 121,
                         noise_sigma: float | None = None,
                         seed: int = 0) -> tuple[Dataset, Dataset]:
    """Train/test sets from one run of 2-D Halton points (bases 2 and 3),
    the test points continuing the training ones, targets from Franke's
    surface. Given noise_sigma (sigma_tilde), positive noise is added to the
    training targets only: uniform(0, 1) draws from seed, scaled by
    1/(sqrt(2*pi)*sigma_tilde); seed seeds nothing else."""
    if n_train < 1 or n_test < 1:
        raise ValueError("dataset sizes must be >= 1")
    X = halton_points(n_train + n_test)
    y = franke(X[:, 0], X[:, 1])
    if noise_sigma is not None:
        if not 0 < noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be positive and finite, "
                             f"got {noise_sigma}")
        amplitude = 1.0 / (math.sqrt(2.0 * math.pi) * noise_sigma)
        y[:n_train] += amplitude * np.random.default_rng(seed).uniform(
            0.0, 1.0, size=n_train)
    return Dataset(X[:n_train], y[:n_train]), Dataset(X[n_train:], y[n_train:])


@functools.cache
def load_digits_csv() -> tuple[np.ndarray, np.ndarray]:
    """The bundled digits file (header p0..p63,label) as pixels (N, 64) and
    integer labels (N,). It is parsed on the first call only, and every call
    shares its arrays, which are read-only."""
    values = np.loadtxt(resources.files("signet") / "assets" / "digits.csv",
                        delimiter=",", skiprows=1)
    digits = values[:, :64], values[:, 64].astype(int)
    for array in digits:
        array.flags.writeable = False
    return digits


def make_binary_task(digits, digit_pos: int, digit_neg: int,
                     train_fraction: float = 0.7, seed: int = 0,
                     normalize: bool = False) -> tuple[Dataset, Dataset]:
    """Two-digit classification split of load_digits_csv's (pixels, labels):
    the pair's rows in file order, digit_pos -> +1, digit_neg -> -1, then a
    seeded shuffle, floor(train_fraction * m) rows for training and the rest
    for testing; both parts must be non-empty. The normalize flag divides
    pixels by 16."""
    pixels, labels = digits
    if digit_pos == digit_neg:
        raise ValueError("the two digits must differ")
    if not math.isfinite(train_fraction):
        raise ValueError(f"degenerate split: train fraction {train_fraction}")
    for digit in (digit_pos, digit_neg):
        if not np.any(labels == digit):
            raise ValueError(f"digit {digit} absent from the labels")
    keep = (labels == digit_pos) | (labels == digit_neg)
    X = pixels[keep] / 16.0 if normalize else pixels[keep]
    y = np.where(labels[keep] == digit_pos, 1.0, -1.0)
    m = y.size
    # tiny epsilon keeps e.g. 0.7*360 from flooring to 251
    n_train = int(math.floor(train_fraction * m + 1e-9))
    if n_train < 1 or n_train >= m:
        raise ValueError(f"degenerate split: {n_train} of {m}")
    perm = np.random.default_rng(seed).permutation(m)
    X, y = X[perm], y[perm]
    return Dataset(X[:n_train], y[:n_train]), Dataset(X[n_train:], y[n_train:])


def write_csv(path, header: list[str], rows) -> None:
    """Write a header row, then rows, with CRLF line ends, making the file's
    directory. Floats get 17 significant digits, so they read back bitwise;
    bools are written 1/0."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else
                          int(v) if isinstance(v, bool) else v for v in row]
                         for row in rows)
