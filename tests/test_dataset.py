"""Loading, validation, design construction, counterfactual substitution."""

import numpy as np
import pytest

from gscore.dataset import (
    ColumnSchema,
    ModelSpec,
    TrialDataset,
    build_design,
    counterfactual_design,
    load_csv,
)
from gscore.errors import (
    DataError,
    DegenerateArmError,
    EmptyDataError,
    SchemaError,
)
from gscore.simulation import from_config


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_fixture_loads_complete(self, fixture_data):
        assert fixture_data.n == 20
        assert fixture_data.arm_sizes() == (10, 10)
        assert fixture_data.covariate_names == ("w1",)

    def test_rows_with_missing_values_are_dropped_and_counted(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1,0.5\n,2,0.1\n0,2,NA\n1,1,1.0\n0,2,0.3\n")
        data, dropped = load_csv(path, ColumnSchema("y", "arm", ("w",)))
        assert dropped == 2
        assert data.n == 3

    def test_missing_value_in_unused_column_is_kept(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w,extra\n1,1,0.5,NA\n0,2,0.1,\n0,1,0.0,7\n0,2,1.0,8\n")
        data, dropped = load_csv(path, ColumnSchema("y", "arm", ("w",)))
        assert dropped == 0
        assert data.n == 4

    def test_non_numeric_token_is_rejected_not_coerced(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1,0.5\noops,2,0.1\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_missing_column_is_a_schema_error(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,1\n0,2\n")
        with pytest.raises(SchemaError, match="w"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataError):
            load_csv(write_csv(tmp_path, ""), ColumnSchema("y", "arm"))

    def test_all_rows_incomplete(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\nNA,1\n,2\n")
        with pytest.raises(EmptyDataError):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_arm_relabel_map(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,0\n0,1\n1,0\n0,1\n")
        data, _ = load_csv(path, ColumnSchema("y", "arm", arm_map={0: 1, 1: 2}))
        assert sorted(np.unique(data.arm)) == [1, 2]
        # raw 0 became arm 1
        assert data.arm[0] == 1 and data.arm[1] == 2

    def test_arm_outside_domain_after_mapping(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,3\n0,1\n")
        with pytest.raises(DataError, match="arm"):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_single_arm_csv(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,1\n0,1\n")
        with pytest.raises(DegenerateArmError):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1\n")
        with pytest.raises(DataError, match="fields"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_quoted_fields_and_stratum(self, tmp_path):
        path = write_csv(tmp_path, 'y,arm,"site"\n1,1,"a"\n0,2,"b"\n1,2,a\n')
        data, _ = load_csv(path, ColumnSchema("y", "arm", stratum="site"))
        assert list(data.stratum) == ["a", "b", "a"]

    def test_schema_role_collision(self):
        with pytest.raises(SchemaError):
            ColumnSchema(outcome="y", arm="y")


class TestTrialDataset:
    def test_arrays_are_immutable(self, fixture_data):
        for arr in (fixture_data.outcome, fixture_data.arm,
                    fixture_data.covariates):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_nonfinite_outcome_rejected(self):
        with pytest.raises(DataError):
            TrialDataset(outcome=np.array([1.0, np.nan]),
                         arm=np.array([1, 2]),
                         covariates=np.empty((2, 0)), covariate_names=())

    def test_too_small(self):
        with pytest.raises(EmptyDataError):
            TrialDataset(outcome=np.array([1.0]), arm=np.array([1]),
                         covariates=np.empty((1, 0)), covariate_names=())


class TestModelSpec:
    def test_unknown_family(self):
        with pytest.raises(SchemaError, match="family"):
            ModelSpec(family="probit")

    def test_duplicate_covariates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ModelSpec(family="bernoulli-logit", covariates=("w", "w"))

    @pytest.mark.parametrize("value", ["false", "no", "0", "true", None, 2])
    def test_heterogeneous_must_be_true_or_false(self, value):
        """A quoted YAML "false" is not silently a per-arm model."""
        with pytest.raises(SchemaError, match="heterogeneous"):
            from_config(ModelSpec, {"family": "bernoulli-logit",
                                    "heterogeneous": value}, "model")


def two_subject_data():
    return TrialDataset(outcome=np.array([1.0, 0.0]), arm=np.array([1, 2]),
                        covariates=np.array([[3.0, -1.0], [5.0, 2.0]]),
                        covariate_names=("w", "v"))


class TestBuildDesign:
    def test_homogeneous_layout(self):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",)))
        assert d.column_labels == ("arm1", "arm2", "w")
        np.testing.assert_array_equal(d.X, [[1, 0, 3], [0, 1, 5]])

    def test_heterogeneous_layout(self):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",),
                                   heterogeneous=True))
        assert d.column_labels == ("arm1", "arm2", "w:arm1", "w:arm2")
        np.testing.assert_array_equal(d.X, [[1, 0, 3, 0], [0, 1, 0, 5]])

    def test_every_row_has_exactly_one_arm_indicator(self, fixture_data):
        d = build_design(fixture_data, ModelSpec("bernoulli-logit", ("w1",)))
        np.testing.assert_array_equal(d.X[:, 0] + d.X[:, 1], np.ones(d.n))

    def test_unknown_covariate(self, fixture_data):
        with pytest.raises(SchemaError, match="nope"):
            build_design(fixture_data, ModelSpec("bernoulli-logit", ("nope",)))

    def test_constant_covariate_heterogeneous_warns_not_fails(self):
        data = TrialDataset(outcome=np.array([1.0, 0.0, 1.0, 0.0]),
                            arm=np.array([1, 2, 1, 2]),
                            covariates=np.ones((4, 1)),
                            covariate_names=("c",))
        with pytest.warns(UserWarning, match="constant"):
            build_design(data, ModelSpec("bernoulli-logit", ("c",),
                                         heterogeneous=True))

    def test_arm_only_design(self, fixture_data):
        d = build_design(fixture_data, ModelSpec("bernoulli-logit"))
        assert d.p == 2


class TestCounterfactual:
    @pytest.mark.parametrize("covariates, X1, X2", [
        (("w",), [[1, 0, 3], [1, 0, 5]], [[0, 1, 3], [0, 1, 5]]),
        ((), [[1, 0], [1, 0]], [[0, 1], [0, 1]]),
    ], ids=["w", "arm-only"])
    def test_homogeneous_sets_arm_columns_only(self, covariates, X1, X2):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", covariates))
        np.testing.assert_array_equal(counterfactual_design(d, 1), X1)
        np.testing.assert_array_equal(counterfactual_design(d, 2), X2)

    @pytest.mark.parametrize("covariates, X1, X2", [
        (("w",), [[1, 0, 3, 0], [1, 0, 5, 0]], [[0, 1, 0, 3], [0, 1, 0, 5]]),
        (("w", "v"), [[1, 0, 3, -1, 0, 0], [1, 0, 5, 2, 0, 0]],
         [[0, 1, 0, 0, 3, -1], [0, 1, 0, 0, 5, 2]]),
    ], ids=["w", "w-v"])
    def test_heterogeneous_moves_covariate_between_arm_slots(
            self, covariates, X1, X2):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", covariates,
                                   heterogeneous=True))
        np.testing.assert_array_equal(counterfactual_design(d, 1), X1)
        np.testing.assert_array_equal(counterfactual_design(d, 2), X2)

    def test_bad_arm_value(self, fixture_design):
        with pytest.raises(ValueError):
            counterfactual_design(fixture_design, 3)

    def test_consistency_rows_match_observed_design(self):
        """Subjects observed on arm a keep identical rows under setting a."""
        rng = np.random.default_rng(42)
        from conftest import random_trial

        for trial in range(20):
            data = random_trial(rng, n=30, q=3)
            het = bool(trial % 2)
            d = build_design(data, ModelSpec("gaussian-identity",
                                             ("w1", "w2", "w3"),
                                             heterogeneous=het))
            for a in (1, 2):
                Xa = counterfactual_design(d, a)
                rows = data.arm == a
                np.testing.assert_array_equal(Xa[rows], d.X[rows])

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_cached_pair_read_only_and_built_once(self, heterogeneous):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",),
                                   heterogeneous=heterogeneous))
        X1, X2 = d.counterfactuals
        assert d.counterfactuals[0] is X1 and d.counterfactuals[1] is X2
        for a, Xa in ((1, X1), (2, X2)):
            np.testing.assert_array_equal(Xa, counterfactual_design(d, a))
            assert not Xa.flags.writeable
            with pytest.raises(ValueError):
                Xa[0, 0] = 7.0
        assert counterfactual_design(d, 1).flags.writeable

    def test_counterfactual_does_not_mutate_design(self, fixture_design):
        before = fixture_design.X.copy()
        counterfactual_design(fixture_design, 2)
        np.testing.assert_array_equal(fixture_design.X, before)
