import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset,
                              ParseError, Schema, SchemaError, check_count, check_seed,
                              encode, load_csv, save_csv, train_test_split)
from genensemble.generators import GeneratorSpec, fit_dp_summary, generate_ensemble
from genensemble.predictors import PredictorSpec, train
from genensemble.rng import child_rng, child_seed, make_rng

NUM_SCHEMA = Schema((Column("x", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_are_stored_as_int(self, value):
        count = check_count(value, "k")
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3", True, np.bool_(True), None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            check_count(value, "k")

    def test_below_minimum_rejected(self):
        assert check_count(2, "r", minimum=2) == 2
        with pytest.raises(ValueError, match="^r must be >= 2$"):
            check_count(1, "r", minimum=2)


class TestCheckSeed:
    @pytest.mark.parametrize("value", [3, -3, 2**70, np.int64(3), np.uint64(2**64 - 1)])
    def test_integers_are_stored_as_int(self, value):
        seed = check_seed(value)
        assert seed == int(value) and type(seed) is int

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3", True, np.bool_(True), None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            check_seed(value)

    def test_rng_takes_numpy_seeds_modulo_2_64(self):
        # np.int64 parents used to overflow in child_seed's masking
        assert child_seed(np.int64(3), "x", np.int64(2)) == child_seed(3, "x", 2)
        assert child_seed(np.uint64(2**64 - 1), "x") == child_seed(-1, "x")
        assert make_rng(np.int32(7)).random() == make_rng(7 + 2**64).random()
        assert child_rng(np.int64(3), "x").random() == child_rng(3, "x").random()

    @pytest.mark.parametrize("call", [lambda s: child_seed(s, "x"), make_rng,
                                      lambda s: child_seed(1, "x", s)])
    def test_rng_refuses_bool_seeds(self, call):
        # True used to be taken as seed 1
        with pytest.raises(ValueError, match="must be an integer, got True"):
            call(True)

    def test_public_seed_parameters(self):
        data = Dataset(Schema((Column("c", CATEGORICAL, FEATURE, ("a", "b")),
                               Column("y", CATEGORICAL, TARGET, ("0", "1")))),
                       np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        datasets, record = generate_ensemble(spec, data, 2, "independent", seed=np.int64(5))
        want, _ = generate_ensemble(spec, data, 2, "independent", seed=5)
        assert [d.rows.tobytes() for d in datasets] == [d.rows.tobytes() for d in want]
        assert type(record.seed) is int
        # the summary digest takes any integer seed, as the draws do
        assert fit_dp_summary(data, 1.0, 1e-6, -1).summary_id == \
            fit_dp_summary(data, 1.0, 1e-6, 2**64 - 1).summary_id
        with pytest.raises(ValueError, match="seed must be an integer"):
            train_test_split(data, 0.5, 1.0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            train(PredictorSpec("mean", "classification"),
                  encode(data, data, standardize=False), seed=True)


class TestSchema:
    def test_requires_exactly_one_target(self):
        with pytest.raises(SchemaError):
            Schema((Column("x", NUMERIC, FEATURE),))
        with pytest.raises(SchemaError):
            Schema((Column("a", NUMERIC, TARGET), Column("b", NUMERIC, TARGET)))

    def test_categorical_levels_distinct_nonempty(self):
        with pytest.raises(SchemaError):
            Column("c", CATEGORICAL, FEATURE, levels=("a", "a"))
        with pytest.raises(SchemaError):
            Column("c", CATEGORICAL, FEATURE, levels=("a", ""))
        with pytest.raises(SchemaError):
            Column("c", CATEGORICAL, FEATURE, levels=())

    def test_dataset_rejects_bad_level_index(self):
        schema = Schema((Column("c", CATEGORICAL, FEATURE, levels=("a", "b")),
                         Column("y", NUMERIC, TARGET)))
        with pytest.raises(SchemaError):
            Dataset(schema, np.array([[2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [3.0, -1.0, 0.5, np.nan, np.inf])
    def test_message_names_the_first_bad_column(self, bad):
        schema = Schema((Column("x", NUMERIC, FEATURE),
                         Column("a", CATEGORICAL, FEATURE, levels=("u", "v")),
                         Column("b", CATEGORICAL, FEATURE, levels=("u", "v", "w")),
                         Column("y", CATEGORICAL, TARGET, levels=("n", "p"))))
        Dataset(schema, np.array([[7.5, 1.0, 2.0, 0.0], [-3.0, 0.0, 0.0, 1.0]]))
        with pytest.raises(SchemaError, match="column 'b' holds an invalid level index"):
            Dataset(schema, np.array([[7.5, 1.0, 2.0, 0.0], [-3.0, 0.0, bad, bad]]))
        with pytest.raises(SchemaError, match="column 'a'"):
            Dataset(schema, np.array([[7.5, 1.0, 2.0, 0.0], [-3.0, bad, bad, bad]]))


class TestLoadCsv:
    def test_two_row_read_back(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y\n1,2\n3,4\n"), NUM_SCHEMA)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        with pytest.raises(ParseError, match=r"row 1.*'x'"):
            load_csv(write(tmp_path, "x,y\nabc,2\n"), NUM_SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        with pytest.raises(ParseError, match=r"row 2.*'y'.*finite"):
            load_csv(write(tmp_path, f"x,y\n1,2\n3,{cell}\n"), NUM_SCHEMA)

    def test_unknown_level_is_parse_error(self, tmp_path):
        schema = Schema((Column("c", CATEGORICAL, FEATURE, levels=("red", "green")),
                         Column("y", NUMERIC, TARGET)))
        with pytest.raises(ParseError, match="blue"):
            load_csv(write(tmp_path, "c,y\nblue,1\n"), schema)

    def test_empty_file_is_error(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_csv(write(tmp_path, ""), NUM_SCHEMA)

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_csv(write(tmp_path, "y,x\n1,2\n"), NUM_SCHEMA)

    def test_round_trip_is_value_exact(self, tmp_path):
        schema = Schema((Column("x", NUMERIC, FEATURE),
                         Column("c", CATEGORICAL, FEATURE, levels=("a", "b")),
                         Column("y", NUMERIC, TARGET)))
        rng = np.random.default_rng(3)
        rows = np.column_stack([
            rng.normal(scale=1e-7, size=50) * 10.0 ** rng.integers(-12, 12, size=50),
            rng.integers(0, 2, size=50).astype(float),
            rng.normal(size=50),
        ])
        original = Dataset(schema, rows)
        path = tmp_path / "rt.csv"
        save_csv(original, path)
        loaded = load_csv(path, schema)
        assert np.array_equal(loaded.rows, original.rows)


class TestSplit:
    def test_sizes(self):
        data = Dataset(NUM_SCHEMA, np.arange(200.0).reshape(100, 2))
        train, test = train_test_split(data, 0.25, seed=7)
        assert (train.n, test.n) == (75, 25)

    def test_deterministic(self):
        data = Dataset(NUM_SCHEMA, np.arange(200.0).reshape(100, 2))
        a = train_test_split(data, 0.25, seed=7)
        b = train_test_split(data, 0.25, seed=7)
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[1].rows, b[1].rows)

    def test_small_partition(self):
        data = Dataset(NUM_SCHEMA, np.arange(8.0).reshape(4, 2))
        train, test = train_test_split(data, 0.25, seed=0)
        assert (train.n, test.n) == (3, 1)
        combined = np.vstack([train.rows, test.rows])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, data.rows))

    def test_fraction_bounds(self):
        data = Dataset(NUM_SCHEMA, np.arange(8.0).reshape(4, 2))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                train_test_split(data, bad, seed=0)

    @pytest.mark.parametrize("fraction", ["0.5", True, None])
    def test_fraction_must_be_a_number(self, fraction):
        # "0.5" raised TypeError from the comparison
        data = Dataset(NUM_SCHEMA, np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError, match="test_fraction must be a real number"):
            train_test_split(data, fraction, seed=0)

    @pytest.mark.parametrize("fraction, side", [(0.01, "test"), (0.99, "train")])
    def test_empty_side_rejected(self, fraction, side):
        data = Dataset(NUM_SCHEMA, np.arange(60.0).reshape(30, 2))
        with pytest.raises(ValueError, match=f"leaves the {side} set empty"):
            train_test_split(data, fraction, seed=0)

    def test_partition_property_random(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 60))
            data = Dataset(NUM_SCHEMA, rng.normal(size=(n, 2)))
            frac = float(rng.uniform(0.05, 0.95))
            train, test = train_test_split(data, frac, seed=trial)
            assert test.n == int(np.floor(frac * n + 0.5))
            combined = sorted(map(tuple, np.vstack([train.rows, test.rows])))
            assert combined == sorted(map(tuple, data.rows))


class TestEncode:
    def test_population_zscore(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        fm = encode(data, data, standardize=True)
        # hand computation: mean 2, population stddev sqrt(2/3)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(fm.x[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(expected[2], 1.2247448, atol=1e-6)
        assert abs(fm.x[:, 0].mean()) < 1e-9
        assert abs(fm.x[:, 0].std() - 1.0) < 1e-9

    def test_one_hot_rows_sum_to_one(self):
        schema = Schema((Column("c", CATEGORICAL, FEATURE, levels=("a", "b", "c")),
                         Column("y", NUMERIC, TARGET)))
        data = Dataset(schema, np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 1.0]]))
        fm = encode(data, data, standardize=False)
        assert fm.d == 3
        np.testing.assert_array_equal(fm.x.sum(axis=1), np.ones(3))

    def test_no_standardize_is_identity(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.5, 0.0], [-2.0, 1.0]]))
        fm = encode(data, data, standardize=False)
        np.testing.assert_array_equal(fm.x[:, 0], [1.5, -2.0])

    def test_constant_column_maps_to_zero(self):
        data = Dataset(NUM_SCHEMA, np.array([[5.0, 0.0], [5.0, 1.0]]))
        fm = encode(data, data, standardize=True)
        np.testing.assert_array_equal(fm.x[:, 0], [0.0, 0.0])

    def test_scaler_depends_only_on_train(self):
        train = Dataset(NUM_SCHEMA, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        test_a = Dataset(NUM_SCHEMA, np.array([[10.0, 0.0]]))
        test_b = Dataset(NUM_SCHEMA, np.array([[-999.0, 5.0]]))
        fa = encode(train, test_a, standardize=True)
        fb = encode(train, test_b, standardize=True)
        # both sides are z-scored with the train column's mean 2 and stddev
        std = np.array([1.0, 2.0, 3.0]).std()
        np.testing.assert_array_equal(fa.x[:, 0], (np.array([10.0]) - 2.0) / std)
        np.testing.assert_array_equal(fb.x[:, 0], (np.array([-999.0]) - 2.0) / std)

    def test_target_never_scaled(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 100.0], [2.0, 200.0], [3.0, 300.0]]))
        fm = encode(data, data, standardize=True)
        np.testing.assert_array_equal(fm.y, [100.0, 200.0, 300.0])

    def test_classification_target_becomes_class_indices(self):
        schema = Schema((Column("x", NUMERIC, FEATURE),
                         Column("y", CATEGORICAL, TARGET, levels=("no", "yes"))))
        data = Dataset(schema, np.array([[0.5, 1.0], [1.5, 0.0]]))
        fm = encode(data, data, standardize=False)
        assert fm.task == "classification"
        assert fm.n_classes == 2
        assert fm.y.dtype.kind == "i"

    def test_schema_mismatch_rejected(self):
        other = Schema((Column("z", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))
        a = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0]]))
        b = Dataset(other, np.array([[1.0, 2.0]]))
        with pytest.raises(SchemaError):
            encode(a, b, standardize=False)


def _encode_reference(train, apply_to, standardize):
    """encode as it was: one block per feature column, joined by hstack."""
    schema = train.schema

    def expand(ds):
        blocks = []
        for j in schema.feature_indices:
            col = schema.columns[j]
            vals = ds.rows[:, j]
            if col.kind == NUMERIC:
                blocks.append(vals[:, None])
            else:
                onehot = np.zeros((ds.n, len(col.levels)))
                if ds.n:
                    onehot[np.arange(ds.n), vals.astype(int)] = 1.0
                blocks.append(onehot)
        if not blocks:
            return np.zeros((ds.n, 0))
        return np.hstack(blocks)

    x = expand(apply_to)
    if standardize:
        ref = expand(train)
        mean = ref.mean(axis=0) if ref.shape[0] else np.zeros(ref.shape[1])
        std = ref.std(axis=0) if ref.shape[0] else np.zeros(ref.shape[1])
        x = np.where(std > 0, (x - mean) / np.where(std > 0, std, 1.0), 0.0)
    y = apply_to.target_values()
    if schema.task == "classification":
        y = y.astype(int)
    return x, y


# column kinds, the target last: 0 is numeric, k > 0 categorical with k levels
ANY_KINDS = st.lists(st.just(0) | st.integers(1, 20), min_size=1, max_size=9)


@st.composite
def mixed_dataset_pairs(draw, kinds=ANY_KINDS):
    """Two datasets of one schema: 0-8 features and a target, each numeric or
    categorical with 1-20 levels; numeric cells at scales 1e-3 to 1e3, some
    columns constant."""
    kinds = draw(kinds)
    columns = tuple(Column(f"c{j}", CATEGORICAL if k else NUMERIC,
                           TARGET if j == len(kinds) - 1 else FEATURE,
                           levels=tuple(f"l{v}" for v in range(k)))
                    for j, k in enumerate(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(n):
        cols = [rng.integers(0, k, size=n).astype(float) if k
                else np.round(rng.normal(size=n), draw(st.integers(0, 3)))
                * 10.0 ** draw(st.integers(-3, 3)) for k in kinds]
        return np.column_stack(cols).reshape(n, len(kinds))

    schema = Schema(columns)
    return (Dataset(schema, rows(draw(st.integers(0, 12)))),
            Dataset(schema, rows(draw(st.integers(0, 12)))))


class TestEncodeMatchesPerColumnReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=mixed_dataset_pairs(), standardize=st.booleans())
    def test_bytes(self, pair, standardize):
        train, apply_to = pair
        for a, b in ((train, train), (train, apply_to)):
            fm = encode(a, b, standardize)
            x, y = _encode_reference(a, b, standardize)
            # the layout matters too: column means of a C-ordered block are
            # summed row by row, those of an F-ordered one pairwise
            assert fm.x.flags.c_contiguous and fm.x.shape == x.shape
            assert fm.x.tobytes() == x.tobytes() and fm.y.tobytes() == y.tobytes()


def _encode_expand_twice(train, apply_to, standardize):
    """encode before a dataset kept its encoding: apply_to is expanded, and
    train expanded again to fit the scaler."""
    schema = train.schema
    num_src, num_dst, cat_src, cat_dst, width = schema._feature_layout

    def expand(ds):
        if not cat_src.size:
            return ds.rows.take(num_src, axis=1)
        x = np.zeros((ds.n, width))
        x[:, num_dst] = ds.rows[:, num_src]
        x[np.arange(ds.n)[:, None], cat_dst + ds.rows[:, cat_src].astype(np.intp)] = 1.0
        return x

    x = expand(apply_to)
    if standardize:
        ref = expand(train)
        mean = ref.mean(axis=0) if ref.shape[0] else np.zeros(ref.shape[1])
        std = ref.std(axis=0) if ref.shape[0] else np.zeros(ref.shape[1])
        x = np.where(std > 0, (x - mean) / np.where(std > 0, std, 1.0), 0.0)
    y = apply_to.target_values()
    if schema.task == "classification":
        y = y.astype(int)
    return x, y


FEATURE_KINDS = {
    "numeric": st.lists(st.just(0), min_size=2, max_size=6),
    "categorical": st.lists(st.integers(1, 20), min_size=2, max_size=6),
    "mixed": st.lists(st.just(0) | st.integers(1, 20), min_size=3, max_size=7).filter(
        lambda kinds: 0 in kinds[:-1] and any(kinds[:-1])),
}


class TestEncodeKeepsOneEncodingPerDataset:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), style=st.sampled_from(sorted(FEATURE_KINDS)),
           standardize=st.booleans())
    def test_bytes_match_expand_twice(self, data, style, standardize):
        synthetic, test = data.draw(mixed_dataset_pairs(FEATURE_KINDS[style]))
        # a member's two calls, then again from the kept encodings
        for _ in range(2):
            for a, b in ((synthetic, synthetic), (synthetic, test)):
                fm = encode(a, b, standardize)
                x, y = _encode_expand_twice(a, b, standardize)
                assert fm.x.flags.c_contiguous and fm.x.shape == x.shape
                assert fm.x.tobytes() == x.tobytes() and fm.y.tobytes() == y.tobytes()
                # the kept expansion is shared, so no caller may write to it
                assert fm.x.flags.writeable == standardize

    def test_unstandardised_x_cannot_be_written(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.5, 0.0], [-2.0, 1.0]]))
        x = encode(data, data, standardize=False).x
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 7.0
        assert encode(data, data, standardize=False).x[0, 0] == 1.5
