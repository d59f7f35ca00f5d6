"""Cohort data model, CSV ingestion, eligibility filtering, horizon labels.

A cohort couples an immutable covariate schema with per-patient columns.
Covariates are stored as a dense float matrix; binary covariates must be
encoded 0/1 upstream, and missing or non-finite values are rejected at
ingestion.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .config import build, read_yaml
from .errors import CohortParseError, ConfigError, IntegrityError, SchemaError

RESERVED_COLUMNS = ("id", "treatment", "event", "time")

_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class CovariateSchema:
    names: tuple[str, ...]
    kinds: tuple[str, ...]  # "binary" | "continuous"
    units: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.kinds) == len(self.units)):
            raise SchemaError("schema fields must have equal length")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("covariate names must be unique")
        for name in self.names:
            if name in RESERVED_COLUMNS:
                raise SchemaError(f"covariate name {name!r} is reserved")
        for kind in self.kinds:
            if kind not in ("binary", "continuous"):
                raise SchemaError(f"unknown covariate kind {kind!r}")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"unknown covariate {name!r}") from None


class Cohort:
    """Immutable cohort: one covariate schema plus per-patient columns.

    The columns are the ids, an n x L covariate matrix, and the treatment,
    event and time arrays. They are validated once here and handed out as
    read-only arrays, so callers select patients with boolean masks.
    """

    def __init__(self, schema: CovariateSchema, ids, covariates, treatment,
                 event, time):
        ids = np.array(ids, dtype=object)
        X = np.array(covariates, dtype=float)
        treatment = np.array(treatment)
        event = np.array(event)
        time = np.array(time, dtype=float)
        n = ids.size
        if X.shape != (n, len(schema)):
            raise SchemaError(
                f"expected a {n} x {len(schema)} covariate matrix, "
                f"got shape {X.shape}")
        if not treatment.shape == event.shape == time.shape == (n,):
            raise SchemaError(f"treatment, event and time must each hold {n} values")
        for bad, rule in ((~np.isin(treatment, (0, 1)), "treatment must be 0/1"),
                          (~np.isin(event, (0, 1)), "event must be 0/1"),
                          (time < 0, "time must be >= 0")):
            if bad.any():
                raise IntegrityError(f"patient {ids[bad.argmax()]}: {rule}")
        seen = set()
        for pid in ids:
            if pid in seen:
                raise IntegrityError(f"duplicate patient id {pid!r}")
            seen.add(pid)
        self.schema = schema
        self._ids = ids
        self._X = X
        self._treatment = treatment.astype(int)
        self._event = event.astype(int)
        self._time = time
        for arr in (ids, X, self._treatment, self._event, time):
            arr.flags.writeable = False

    def __len__(self):
        return self._ids.size

    @property
    def ids(self) -> list[str]:
        return self._ids.tolist()

    def covariate_matrix(self) -> np.ndarray:
        return self._X

    def treatments(self) -> np.ndarray:
        return self._treatment

    def events(self) -> np.ndarray:
        return self._event

    def times(self) -> np.ndarray:
        return self._time

    def take(self, mask) -> "Cohort":
        """The patients where the boolean mask is true, in cohort order."""
        mask = np.asarray(mask, dtype=bool)
        return Cohort(self.schema, self._ids[mask], self._X[mask],
                      self._treatment[mask], self._event[mask], self._time[mask])

    def subset(self, ids) -> "Cohort":
        wanted = set(ids)
        missing = wanted.difference(self._ids)
        if missing:
            raise IntegrityError(f"unknown patient ids: {sorted(missing)}")
        return self.take([pid in wanted for pid in self._ids])


@dataclass(frozen=True)
class TrialTarget:
    """Emulation goalposts: per-arm event-free rates and covariate means."""

    horizon_months: float
    mu0: float
    mu1: float
    covariate_targets: dict = field(default_factory=dict)  # name -> (arm0, arm1)
    tolerance_outcome: float = 0.02
    tolerance_covariate: float = 0.03

    def __post_init__(self):
        if not 0 < self.horizon_months < math.inf:
            raise ConfigError("horizon_months must be positive and finite")
        if not (0.0 <= self.mu0 <= 1.0 and 0.0 <= self.mu1 <= 1.0):
            raise ConfigError("mu0/mu1 must be probabilities")
        for name in ("tolerance_outcome", "tolerance_covariate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative")
        for name, means in self.covariate_targets.items():
            if not all(map(math.isfinite, means)):
                raise ConfigError(f"covariate_targets: {name}: means must be finite")


def _is_finite_number(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class EligibilityRule:
    field: str
    op: str  # <, <=, =, >=, >, in
    value: object

    def __post_init__(self):
        if self.op == "in":
            if not (isinstance(self.value, (list, tuple))
                    and all(map(_is_finite_number, self.value))):
                raise ConfigError("value must be a list of finite numbers for op 'in', "
                                  f"got {self.value!r}")
        elif self.op in _COMPARATORS:
            if not _is_finite_number(self.value):
                raise ConfigError(f"value must be a finite number for op {self.op!r}, "
                                  f"got {self.value!r}")
        else:
            raise ConfigError(f"unknown comparator {self.op!r}")

    def describe(self) -> str:
        return f"{self.field} {self.op} {self.value}"

    def mask(self, cohort: Cohort) -> np.ndarray:
        """Boolean array: which of the cohort's patients satisfy the rule."""
        if self.field == "time":
            values = cohort.times()
        elif self.field in cohort.schema.names:
            values = cohort.covariate_matrix()[:, cohort.schema.index(self.field)]
        else:
            raise SchemaError(f"eligibility rule references unknown field {self.field!r}")
        if self.op == "in":
            return np.isin(values, list(self.value))
        return _COMPARATORS[self.op](values, self.value)


@dataclass(frozen=True)
class EligibilityResult:
    cohort: Cohort
    exclusions: dict  # rule description -> count of patients failing it


def load_cohort(path, schema: CovariateSchema) -> Cohort:
    """Parse a cohort CSV (id,treatment,event,time,<covariates>) against a schema.

    Every numeric cell must be finite; treatment, event and binary
    covariates must be exactly 0 or 1.
    """
    numeric = ("treatment", "event", "time") + schema.names
    zero_one = {"treatment", "event"} | {
        name for name, kind in zip(schema.names, schema.kinds) if kind == "binary"}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortParseError(f"{path}: empty file, expected header row") from None
        for col in ("id",) + numeric:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        col_idx = [header.index(c) for c in numeric]
        id_idx = header.index("id")
        last = max(col_idx + [id_idx])
        ids, rows = [], []
        for rownum, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) <= last:
                raise CohortParseError(
                    f"{path}: row {rownum}: {len(row)} cells, header has {len(header)}")
            values = []
            for col, i in zip(numeric, col_idx):
                raw = row[i]
                try:
                    v = float(raw)
                except ValueError:
                    raise CohortParseError(
                        f"{path}: row {rownum}: non-numeric value {raw!r} in column {col!r}"
                    ) from None
                if not math.isfinite(v):
                    raise CohortParseError(
                        f"{path}: row {rownum}: non-finite value {raw!r} in column {col!r}")
                if col in zero_one and v not in (0.0, 1.0):
                    raise CohortParseError(
                        f"{path}: row {rownum}: column {col!r} must be 0/1, got {raw!r}")
                values.append(v)
            ids.append(row[id_idx])
            rows.append(values)
    table = np.array(rows, dtype=float).reshape(len(rows), len(numeric))
    return Cohort(schema, ids, table[:, 3:], table[:, 0], table[:, 1], table[:, 2])


def save_cohort(cohort: Cohort, path) -> None:
    header = list(RESERVED_COLUMNS) + list(cohort.schema.names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pid, t, e, time, covs in zip(
                cohort.ids, cohort.treatments().tolist(), cohort.events().tolist(),
                cohort.times().tolist(), cohort.covariate_matrix().tolist()):
            writer.writerow([pid, t, e, repr(time)] + [repr(v) for v in covs])


def apply_eligibility(cohort: Cohort, rules: list[EligibilityRule]) -> EligibilityResult:
    """Keep patients satisfying the conjunction of all rules.

    Exclusion counts are per rule: a patient failing several rules counts
    once under each rule it fails.
    """
    exclusions = {rule.describe(): 0 for rule in rules}
    keep = np.ones(len(cohort), dtype=bool)
    for rule in rules:
        ok = rule.mask(cohort)
        exclusions[rule.describe()] += int((~ok).sum())
        keep &= ok
    return EligibilityResult(cohort.take(keep), exclusions)


def binarize_at_horizon(cohort: Cohort, horizon: float):
    """(known, labels): a mask of the patients whose status at the horizon
    is known, and their labels, 1 = event by horizon and 0 = event-free
    through it. A patient censored before the horizon is not known."""
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    times = cohort.times()
    event_by_horizon = (cohort.events() == 1) & (times <= horizon)
    # censored before horizon: label unknowable without IPCW
    known = event_by_horizon | (times > horizon)
    return known, event_by_horizon[known].astype(int)


@dataclass(frozen=True)
class _TrialFile(TrialTarget):
    """The trial YAML: the target's keys plus the eligibility rules."""

    eligibility: tuple[EligibilityRule, ...] = ()


def _arm_targets(value) -> dict:
    """{name: {arm0: mean, arm1: mean}} as {name: (arm0 mean, arm1 mean)}."""
    targets = {}
    for name, arms in dict(value or {}).items():
        if not isinstance(arms, dict) or sorted(arms) != ["arm0", "arm1"]:
            raise ValueError(f"{name}: expected keys arm0 and arm1, got {arms!r}")
        targets[name] = (float(arms["arm0"]), float(arms["arm1"]))
    return targets


def load_trial_config(path, schema: CovariateSchema):
    """Read the declarative trial config: TrialTarget plus eligibility rules.
    A covariate target or rule field that the schema lacks is a config error."""
    doc = build(_TrialFile, read_yaml(path), path, covariate_targets=_arm_targets)
    for name in doc.covariate_targets:
        if name not in schema.names:
            raise ConfigError(
                f"{path}: covariate_targets.{name}: {name!r} is not a covariate")
    for i, rule in enumerate(doc.eligibility):
        if rule.field != "time" and rule.field not in schema.names:
            raise ConfigError(f"{path}: eligibility[{i}].field: {rule.field!r} "
                              "is neither time nor a covariate")
    target = TrialTarget(**{f.name: getattr(doc, f.name) for f in fields(TrialTarget)})
    return target, list(doc.eligibility)


def save_trial_config(target: TrialTarget, rules: list[EligibilityRule], path) -> None:
    doc = {k: float(v) for k, v in asdict(target).items() if k != "covariate_targets"}
    doc["covariate_targets"] = {
        name: {"arm0": float(a0), "arm1": float(a1)}
        for name, (a0, a1) in sorted(target.covariate_targets.items())}
    doc["eligibility"] = [asdict(rule) for rule in rules]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
