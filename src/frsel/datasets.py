"""Dataset loading, standardization, splitting and synthetic cluster generation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

LABEL_COLUMN = "label"

# Columns whose training standard deviation falls below this are treated as
# constant and mapped to all zeros instead of being divided by noise.
ZERO_STD = 1e-12

# Suffix marking the informative columns of a synthetic dataset, so tests and
# scripts can recover the ground truth after column shuffling.
INFORMATIVE_SUFFIX = "!inf"


# Bounds of an int64 label.
_INT64 = np.iinfo(np.int64)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a NaN-free array, sorted and flattened, as
    np.unique returns them. np.unique is not used: in NumPy 2.4 its first
    call imports numpy.ma, which frsel otherwise never loads."""
    flat = np.sort(np.ravel(values))
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _int64_labels(values) -> np.ndarray:
    """Labels as int64, or a ValueError naming the first row that is not a
    whole number within the int64 range."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.trunc(raw)))
        if bad.size:
            r = bad[0]
            raise ValueError(f"label {float(raw.flat[r])!r} at row {r} is not a whole number")
        # 2.0**63 is exact; the float next below it fits int64.
        out = np.flatnonzero((raw < -(2.0 ** 63)) | (raw >= 2.0 ** 63))
    elif raw.dtype.kind == "u":
        out = np.flatnonzero(raw > _INT64.max)
    elif raw.dtype.kind == "O":
        # Python ints beyond 64 bits make NumPy fall back to objects.
        out = [r for r, v in enumerate(raw.flat)
               if isinstance(v, Integral) and not _INT64.min <= v <= _INT64.max]
    else:
        out = ()
    if len(out):
        r = out[0]
        value = raw.flat[r]
        if isinstance(value, np.generic):
            value = value.item()
        raise ValueError(f"label {value!r} at row {r} is outside the int64 range")
    return np.array(raw, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample matrix with integer class labels and named columns.

    samples is float64 of shape (n_samples, n_features), labels is int64 of
    shape (n_samples,). Construction validates shapes, at least one feature
    column, finiteness, whole-number labels within the int64 range, unique
    feature names and at least two classes.
    """

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)
        labels = _int64_labels(self.labels)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if samples.shape[1] == 0:
            raise ValueError("no feature columns: a dataset needs at least one")
        if not np.isfinite(samples).all():
            r, c = np.argwhere(~np.isfinite(samples))[0]
            raise ValueError(f"non-finite value at row {r}, column {c}")
        if labels.shape != (samples.shape[0],):
            raise ValueError(
                f"got {labels.shape[0]} labels for {samples.shape[0]} rows"
            )
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != samples.shape[1]:
            raise ValueError(
                f"got {len(names)} feature names for {samples.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        class_ids = sorted_distinct(labels)
        if class_ids.size < 2:
            raise ValueError("fewer than 2 classes")
        for array in (samples, labels, class_ids):
            array.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "_class_ids", class_ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def class_ids(self) -> np.ndarray:
        """Sorted distinct class labels, computed once, read-only."""
        return self._class_ids


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-column means and standard deviations learned from a training set."""

    means: np.ndarray
    stds: np.ndarray


def zscore_fit(ds: Dataset) -> StandardizationParams:
    """Learn per-column mean and population standard deviation."""
    return StandardizationParams(
        means=ds.samples.mean(axis=0), stds=ds.samples.std(axis=0)
    )


def zscore_apply(ds: Dataset, params: StandardizationParams) -> Dataset:
    """Standardize columns with previously fitted parameters.

    Constant columns (std below ZERO_STD) become all zeros rather than
    dividing by a vanishing denominator.
    """
    if params.means.shape[0] != ds.n_features:
        raise ValueError(
            f"params cover {params.means.shape[0]} features, "
            f"dataset has {ds.n_features}"
        )
    degenerate = params.stds < ZERO_STD
    safe = np.where(degenerate, 1.0, params.stds)
    z = (ds.samples - params.means) / safe
    z[:, degenerate] = 0.0
    return Dataset(samples=z, labels=ds.labels, feature_names=ds.feature_names)


def _take(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        samples=ds.samples[idx],
        labels=ds.labels[idx],
        feature_names=ds.feature_names,
    )


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle rows and split so that every class appears in both parts.

    The training size is round(train_fraction * n). Permutations are drawn
    until each class is present on both sides; a dataset too small for that
    raises after 100 attempts.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = ds.n_samples
    n_train = int(round(train_fraction * n))
    required = set(ds.class_ids.tolist())
    rng = np.random.default_rng(seed)
    for _ in range(100):
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        if (
            set(ds.labels[train_idx].tolist()) == required
            and set(ds.labels[test_idx].tolist()) == required
        ):
            return _take(ds, train_idx), _take(ds, test_idx)
    raise ValueError(
        "could not place every class in both parts after 100 shuffles; "
        "the dataset is too small or too imbalanced for this train_fraction"
    )


def _plain(cell: str) -> str:
    """The cell itself, if it is ASCII without "_": int() and float() also
    read "_" digit separators and non-ASCII digits, which a CSV cell is not
    meant to hold. Raises ValueError otherwise."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return cell


def load_csv(path) -> Dataset:
    """Read a UTF-8 comma-separated file with a header row into a Dataset.

    A leading byte-order mark, as spreadsheet exports write, is skipped.

    Exactly one column must be named "label" and hold integer class ids; all
    other columns are parsed as finite float64 features. Malformed or
    non-finite cells and ragged rows are reported with their file position.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, a header row is required") from None
        if header.count(LABEL_COLUMN) != 1:
            raise ValueError(
                f'{path}: expected exactly one column named "{LABEL_COLUMN}", '
                f"found {header.count(LABEL_COLUMN)}"
            )
        label_pos = header.index(LABEL_COLUMN)
        feature_names = tuple(h for j, h in enumerate(header) if j != label_pos)
        rows: list[list[float]] = []
        labels: list[int] = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            values = []
            for j, cell in enumerate(cells):
                if j == label_pos:
                    try:
                        label = int(_plain(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {line_no}, column {header[j]!r}: "
                            f"{cell!r} is not an integer label"
                        ) from None
                    if not _INT64.min <= label <= _INT64.max:
                        raise ValueError(
                            f"{path}: line {line_no}, column {header[j]!r}: "
                            f"{cell!r} is outside the int64 range"
                        )
                    labels.append(label)
                else:
                    try:
                        value = float(_plain(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {line_no}, column {header[j]!r}: "
                            f"{cell!r} is not numeric"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}: line {line_no}, column {header[j]!r}: "
                            f"{cell!r} is not finite"
                        )
                    values.append(value)
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        samples=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
    )


def csv_text(ds: Dataset) -> str:
    """A Dataset in the CSV layout load_csv reads."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(ds.feature_names) + [LABEL_COLUMN])
    for row, label in zip(ds.samples, ds.labels):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return buf.getvalue()


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset in the same CSV layout load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(ds))


# Annotation name -> (stored type, accepted types, what the error asks for).
# np.bool_ is neither Integral nor Real, and a bool is never taken as a number.
_FIELD_RULES = {
    "int": (int, Integral, "an integer"),
    "float": (float, Real, "a real number"),
    "bool": (bool, (bool, np.bool_), "a bool"),
}


def check_fields(cfg) -> None:
    """Reject a value of the wrong type in an int, float or bool field.

    A field's rule follows its annotation, a string under postponed
    annotations: an int field takes an integer, a float field a real number
    and a bool field a bool or np.bool_. The value is stored as that Python
    type, so a NumPy integer cannot overflow a sum such as a tabu expiry.
    The ValueError names the first offending field.
    """
    for field in fields(cfg):
        rule = _FIELD_RULES.get(getattr(field.type, "__name__", field.type))
        if rule is None:
            continue
        cast, accepted, wanted = rule
        value = getattr(cfg, field.name)
        if not isinstance(value, accepted) or (isinstance(value, bool) and cast is not bool):
            raise ValueError(f"{field.name} must be {wanted}, got {value!r}")
        try:
            object.__setattr__(cfg, field.name, cast(value))
        except OverflowError:
            raise ValueError(f"{field.name} is too large for a float") from None


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a two-class synthetic cluster dataset.

    Informative columns place the classes at +/- cluster_separation/2 with
    Gaussian spread noise_std; noise columns are standard normal for both
    classes. Columns are shuffled, with informative ones tagged by name.
    """

    n_informative: int = 3
    n_noise: int = 7
    samples_per_class: int = 100
    cluster_separation: float = 6.0
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_informative < 1:
            raise ValueError("n_informative must be at least 1")
        if self.n_noise < 0:
            raise ValueError("n_noise must be non-negative")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be at least 1")
        for name in ("cluster_separation", "noise_std"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")


def synth_clusters(spec: SynthSpec, seed: int) -> Dataset:
    """Generate the two-cluster dataset a SynthSpec describes, reproducibly."""
    rng = np.random.default_rng(seed)
    m = spec.samples_per_class
    n = 2 * m
    labels = np.concatenate([np.full(m, -1, dtype=np.int64), np.full(m, 1, dtype=np.int64)])
    offset = spec.cluster_separation / 2.0
    cols = []
    names = []
    for j in range(spec.n_informative):
        centers = np.where(labels == 1, offset, -offset)
        cols.append(centers + rng.normal(0.0, spec.noise_std, size=n))
        names.append(f"f{j}{INFORMATIVE_SUFFIX}")
    for j in range(spec.n_noise):
        cols.append(rng.normal(0.0, 1.0, size=n))
        names.append(f"f{spec.n_informative + j}")
    order = rng.permutation(len(cols))
    samples = np.column_stack([cols[j] for j in order])
    shuffled = tuple(names[j] for j in order)
    return Dataset(samples=samples, labels=labels, feature_names=shuffled)


def informative_indices(ds: Dataset) -> list[int]:
    """Column indices of synthetically informative features, by name tag."""
    return [
        j for j, name in enumerate(ds.feature_names)
        if name.endswith(INFORMATIVE_SUFFIX)
    ]


# Catalog of 33 transient-stability input quantities, offered as a ready
# feature-naming vocabulary for that domain. Times: t_0 is the fault
# incipient instant, t_cl the clearing instant, and t_{cl+Kc} is K cycles
# after clearing.
_CATALOG_ROWS: tuple[tuple[str, str], ...] = (
    ("Tz1", "Mean value of all the mechanical power before the fault incipient time"),
    ("Tz2", "Maximum value of all the initial rotor acceleration rates"),
    ("Tz3", "Initial rotor angle of the machine with the maximum acceleration rate"),
    ("Tz4", "Mean value of all the initial acceleration power"),
    ("Tz5", "Value of system impact at t_{cl}"),
    ("Tz6", "Rotor angle of the machine with the biggest difference relative to the centre of inertia at t_{cl}"),
    ("Tz7", "Kinetic energy of the machine with the maximum rotor angle at t_{cl}"),
    ("Tz8", "Rotor angle of the machine with the maximum kinetic energy at t_{cl}"),
    ("Tz9", "Maximum value of all the rotor kinetic energies at t_{cl}"),
    ("Tz10", "Mean value of all the rotor kinetic energies at t_{cl}"),
    ("Tz11", "Maximum value of the difference of rotor angles at t_{cl}"),
    ("Tz12", "Rotor angular velocity of the machine with the biggest difference relative to the centre of inertia at t_{cl}"),
    ("Tz13", "Value of system impact at t_{cl+3c}"),
    ("Tz14", "Maximum value of all the rotor kinetic energies at t_{cl+3c}"),
    ("Tz15", "Mean value of all the rotor kinetic energies at t_{cl+3c}"),
    ("Tz16", "Rotor angle of the machine with the biggest difference relative to the centre of inertia at t_{cl+3c}"),
    ("Tz17", "Maximum value of the difference of rotor angles at t_{cl+3c}"),
    ("Tz18", "Kinetic energy of the machine with the maximum rotor angle at t_{cl+3c}"),
    ("Tz19", "Rotor angular velocity of the machine with the biggest difference relative to the centre of inertia at t_{cl+3c}"),
    ("Tz20", "Value of system impact at t_{cl+6c}"),
    ("Tz21", "Maximum value of all the rotor kinetic energies at t_{cl+6c}"),
    ("Tz22", "Mean value of all the rotor kinetic energies at t_{cl+6c}"),
    ("Tz23", "Kinetic energy of the machine with the maximum rotor angle at t_{cl+6c}"),
    ("Tz24", "Rotor angle of the machine with the biggest difference relative to the centre of inertia at t_{cl+6c}"),
    ("Tz25", "Maximum value of the difference of rotor angles at t_{cl+6c}"),
    ("Tz26", "Rotor angular velocity of the machine with the biggest difference relative to the centre of inertia at t_{cl+6c}"),
    ("Tz27", "Value of system impact at t_{cl+9c}"),
    ("Tz28", "Kinetic energy of the machine with the maximum rotor angle at t_{cl+9c}"),
    ("Tz29", "Maximum value of all the rotor kinetic energies at t_{cl+9c}"),
    ("Tz30", "Mean value of all the rotor kinetic energies at t_{cl+9c}"),
    ("Tz31", "Rotor angle of the machine with the biggest difference relative to the centre of inertia at t_{cl+9c}"),
    ("Tz32", "Maximum value of the difference of rotor angles at t_{cl+9c}"),
    ("Tz33", "Rotor angular velocity of the machine with the biggest difference relative to the centre of inertia at t_{cl+9c}"),
)


def catalog() -> dict[str, str]:
    """The 33-entry feature catalog: code -> description, Tz1..Tz33 in order."""
    return dict(_CATALOG_ROWS)
