"""Cohort ingestion, eligibility filtering, and horizon labeling."""

import numpy as np
import pytest

from trialemu.cohort import (
    Cohort,
    CovariateSchema,
    EligibilityRule,
    TrialTarget,
    apply_eligibility,
    binarize_at_horizon,
    load_cohort,
    load_trial_config,
    save_cohort,
    save_trial_config,
)
from trialemu.errors import (
    CohortParseError,
    ConfigError,
    IntegrityError,
    SchemaError,
)

from conftest import cohort_columns

SCHEMA = CovariateSchema(
    names=("age", "size_cm"),
    kinds=("continuous", "continuous"),
    units=("years", "cm"),
)


def write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_cohort_preserves_rows_and_order(tmp_path):
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,time,age,size_cm",
        "p1,1,0,62.0,55,3.1",
        "p2,0,1,14.5,61,4.0",
        "p3,0,0,80.0,47,2.2",
    ])
    cohort = load_cohort(path, SCHEMA)
    assert cohort.ids == ["p1", "p2", "p3"]
    assert cohort.events()[1] == 1
    assert tuple(cohort.covariate_matrix()[2]) == (47.0, 2.2)


def test_load_cohort_header_only_is_empty(tmp_path):
    path = write_csv(tmp_path / "c.csv", ["id,treatment,event,time,age,size_cm"])
    assert len(load_cohort(path, SCHEMA)) == 0


def test_load_cohort_cites_bad_row(tmp_path):
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,time,age,size_cm",
        "p1,1,0,62.0,55,3.1",
        "p2,0,1,abc,61,4.0",
    ])
    with pytest.raises(CohortParseError, match="row 2"):
        load_cohort(path, SCHEMA)


def test_load_cohort_missing_column(tmp_path):
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,age,size_cm",
        "p1,1,0,55,3.1",
    ])
    with pytest.raises(SchemaError, match="time"):
        load_cohort(path, SCHEMA)


def test_load_cohort_duplicate_id(tmp_path):
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,time,age,size_cm",
        "p1,1,0,62.0,55,3.1",
        "p1,0,1,14.5,61,4.0",
    ])
    with pytest.raises(IntegrityError, match="duplicate"):
        load_cohort(path, SCHEMA)


def test_load_cohort_rejects_non_binary_flag(tmp_path):
    schema = CovariateSchema(("flag",), ("binary",), ("",))
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,time,flag",
        "p1,1,0,62.0,0.5",
    ])
    with pytest.raises(CohortParseError, match="flag"):
        load_cohort(path, schema)


@pytest.mark.parametrize("row, column", [
    ("p2,0.5,1,14.5,61,4.0", "treatment"),
    ("p2,0,1.7,14.5,61,4.0", "event"),
    ("p2,0,1,nan,61,4.0", "time"),
    ("p2,0,1,inf,61,4.0", "time"),
    ("p2,0,1,14.5,nan,4.0", "age"),
    ("p2,0,1,14.5,61,-inf", "size_cm"),
    ("p2,0,1,14.5,61", "cells"),
])
def test_load_cohort_rejects_malformed_cells(tmp_path, row, column):
    path = write_csv(tmp_path / "c.csv", [
        "id,treatment,event,time,age,size_cm",
        "p1,1,0,62.0,55,3.1",
        row,
    ])
    with pytest.raises(CohortParseError, match=f"row 2.*{column}"):
        load_cohort(path, SCHEMA)


def test_cohort_validates_columns():
    one = dict(ids=["p1"], covariates=[[1.0, 2.0]], treatment=[1], event=[0],
               time=[1.0])
    Cohort(SCHEMA, **one)
    for key, value, error, message in (
            ("treatment", [2], IntegrityError, "treatment"),
            ("event", [0.5], IntegrityError, "event"),
            ("time", [-1.0], IntegrityError, "time"),
            ("covariates", [[1.0]], SchemaError, "covariate"),
            ("time", [1.0, 2.0], SchemaError, "time")):
        with pytest.raises(error, match=message):
            Cohort(SCHEMA, **dict(one, **{key: value}))


def test_take_keeps_order_and_columns_are_read_only():
    cohort = _cohort([10, 30, 90])
    kept = cohort.take([True, False, True])
    assert kept.ids == ["p0", "p2"]
    assert kept.covariate_matrix()[:, 0].tolist() == [10.0, 90.0]
    assert cohort.subset(["p2", "p0"]).ids == ["p0", "p2"]
    with pytest.raises(IntegrityError, match="unknown"):
        cohort.subset(["p9"])
    with pytest.raises(ValueError):
        cohort.covariate_matrix()[0, 0] = 1.0


def test_cohort_round_trip(tmp_path):
    original = Cohort(SCHEMA, ["p1", "p2"], [[55.0, 3.125], [61.0, 4.0]],
                      [1, 0], [0, 1], [62.5, 14.0625])
    save_cohort(original, tmp_path / "c.csv")
    loaded = load_cohort(tmp_path / "c.csv", SCHEMA)
    assert cohort_columns(loaded) == cohort_columns(original)


def _cohort(ages):
    n = len(ages)
    return Cohort(SCHEMA, [f"p{i}" for i in range(n)],
                  [[float(a), 3.0] for a in ages], [0] * n, [0] * n, [70.0] * n)


def test_eligibility_closed_bounds():
    cohort = _cohort([19, 20, 75, 76])
    rules = [EligibilityRule("age", ">=", 20), EligibilityRule("age", "<=", 75)]
    result = apply_eligibility(cohort, rules)
    assert result.cohort.covariate_matrix()[:, 0].tolist() == [20.0, 75.0]
    assert result.exclusions == {"age >= 20": 1, "age <= 75": 1}


def test_eligibility_empty_rules_is_identity():
    cohort = _cohort([30, 40])
    assert cohort_columns(apply_eligibility(cohort, []).cohort) == \
        cohort_columns(cohort)


def test_eligibility_is_idempotent():
    cohort = _cohort([10, 30, 90])
    rules = [EligibilityRule("age", "<", 80)]
    once = apply_eligibility(cohort, rules).cohort
    twice = apply_eligibility(once, rules).cohort
    assert cohort_columns(once) == cohort_columns(twice)


def test_eligibility_unknown_field():
    cohort = _cohort([30])
    with pytest.raises(SchemaError, match="nope"):
        apply_eligibility(cohort, [EligibilityRule("nope", "<", 1)])


def test_binarize_at_horizon_cases():
    cohort = Cohort(SCHEMA, ["ev", "ok", "cns"], [[50.0, 3.0]] * 3,
                    [0, 0, 0],
                    [1, 0, 0],            # ev: event before horizon
                    [30.0, 72.0, 40.0])   # ok: past horizon; cns: censored early
    known, labels = binarize_at_horizon(cohort, 60.0)
    assert dict(zip(cohort.take(known).ids, labels)) == {"ev": 1, "ok": 0}
    assert cohort.take(~known).ids == ["cns"]


def test_binarize_partitions_cohort():
    rng = np.random.default_rng(3)
    cohort = Cohort(SCHEMA, [f"p{i}" for i in range(50)], [[50.0, 3.0]] * 50,
                    [0] * 50, rng.integers(2, size=50), rng.uniform(0, 120, 50))
    known, labels = binarize_at_horizon(cohort, 60.0)
    assert known.shape == (len(cohort),) and labels.size == known.sum()
    assert labels.size + (~known).sum() == len(cohort)
    assert set(cohort.take(known).ids).isdisjoint(cohort.take(~known).ids)


def test_binarize_requires_positive_horizon():
    cohort = _cohort([30])
    with pytest.raises(ConfigError):
        binarize_at_horizon(cohort, 0.0)


def test_trial_config_round_trip(tmp_path):
    target = TrialTarget(
        horizon_months=60.0, mu0=0.387, mu1=0.495,
        covariate_targets={"age": (55.0, 54.0)},
        tolerance_outcome=0.02, tolerance_covariate=0.03)
    rules = [EligibilityRule("size_cm", "<=", 12.0)]
    save_trial_config(target, rules, tmp_path / "trial.yaml")
    loaded_target, loaded_rules = load_trial_config(tmp_path / "trial.yaml", SCHEMA)
    assert loaded_target == target
    assert loaded_rules == rules


def test_trial_config_missing_key(tmp_path):
    (tmp_path / "trial.yaml").write_text("horizon_months: 60\nmu0: 0.4\n")
    with pytest.raises(ConfigError, match="mu1"):
        load_trial_config(tmp_path / "trial.yaml", SCHEMA)


def test_trial_target_validates_probabilities():
    with pytest.raises(ConfigError):
        TrialTarget(horizon_months=60.0, mu0=1.2, mu1=0.5)


def test_schema_rejects_reserved_and_duplicate_names():
    with pytest.raises(SchemaError):
        CovariateSchema(("time",), ("continuous",), ("",))
    with pytest.raises(SchemaError):
        CovariateSchema(("a", "a"), ("binary", "binary"), ("", ""))
