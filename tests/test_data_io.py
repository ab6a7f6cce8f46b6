import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from distunlearn.data_io import (
    LabeledDataset,
    TextCorpus,
    TfidfConfig,
    TfidfVectorizer,
    _unescape_text,
    downsample_p2,
    load_features_csv,
    load_text_tsv,
    read_schema_file,
    split_row_positions,
    split_stratified,
    tfidf_fit_transform,
    write_text_tsv,
)
from distunlearn.stopwords import ENGLISH_STOPWORDS
from distunlearn.synthetic import two_cluster_corpus


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadFeaturesCsv:
    SCHEMA = {"label_col": "label", "group_col": "group", "id_col": "id"}

    def test_three_row_fixture(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "id,x0,label,x1,group\n"
                         "a,1.0,0,2.0,P1\n"
                         "b,3.0,1,4.0,P2\n"
                         "c,5.0,0,6.0,P2\n")
        ds = load_features_csv(path, self.SCHEMA)
        assert ds.features.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.group, ["P1", "P2", "P2"])
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 3.0, 5.0])
        assert list(ds.row_ids) == ["a", "b", "c"]

    def test_missing_group_column_named_in_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "id,x0,label\na,1.0,0\n")
        with pytest.raises(ValueError, match="group"):
            load_features_csv(path, self.SCHEMA)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "id,x0,label,group\na,oops,0,P1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_features_csv(path, self.SCHEMA)

    def test_unknown_group_tag_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "id,x0,label,group\na,1.0,0,P3\n")
        with pytest.raises(ValueError, match="unknown group tag"):
            load_features_csv(path, self.SCHEMA)

    def test_write_read_round_trip_is_exact(self, tmp_path):
        gen = np.random.default_rng(0)
        values = gen.normal(size=(20, 3))
        lines = ["id,x0,x1,x2,label,group"]
        for i, row in enumerate(values):
            cells = ",".join(f"{v:.17g}" for v in row)
            lines.append(f"r{i},{cells},{i % 2},{'P1' if i % 3 == 0 else 'P2'}")
        path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
        ds = load_features_csv(path, self.SCHEMA)
        np.testing.assert_array_equal(ds.features, values)

    def test_missing_rows_is_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "id,x0,label,group\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_features_csv(path, self.SCHEMA)


class TestSchemaFile:
    def test_parse(self, tmp_path):
        path = write_csv(tmp_path / "schema.txt",
                         "# roles\nlabel_col = label\ngroup_col=group\n\nid_col = id\n")
        assert read_schema_file(path) == {
            "label_col": "label", "group_col": "group", "id_col": "id"}

    def test_malformed_line_rejected(self, tmp_path):
        path = write_csv(tmp_path / "schema.txt", "label_col label\n")
        with pytest.raises(ValueError, match="key=value"):
            read_schema_file(path)


class TestTfidf:
    def test_hand_computed_idf(self):
        config = TfidfConfig(max_features=10, ngram_max=1, min_df=1, sublinear_tf=True)
        vec = TfidfVectorizer(config)
        matrix = vec.fit_transform(["a b", "a c"])
        # df(a)=2, df(b)=df(c)=1 over N=2 docs
        assert vec.idf[vec.vocabulary["a"]] == pytest.approx(1.0, abs=1e-15)
        expected_rare = math.log(3.0 / 2.0) + 1.0
        assert vec.idf[vec.vocabulary["b"]] == pytest.approx(expected_rare, abs=1e-15)
        # rows l2-normalized
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_identical_documents_identical_rows(self):
        matrix, _ = tfidf_fit_transform(
            ["x y z", "x y z"], TfidfConfig(max_features=10, ngram_max=1))
        np.testing.assert_array_equal(matrix[0].toarray(), matrix[1].toarray())

    def test_min_df_prunes_to_empty(self):
        with pytest.raises(ValueError, match="vocabulary is empty"):
            tfidf_fit_transform(["a b", "c d"],
                                TfidfConfig(max_features=10, ngram_max=1, min_df=3))

    def test_bigrams_included(self):
        _, vocab = tfidf_fit_transform(["red cat sat"],
                                       TfidfConfig(max_features=100, ngram_min=1, ngram_max=2))
        assert "red cat" in vocab and "cat sat" in vocab and "cat" in vocab

    def test_vocabulary_ranked_by_document_frequency(self):
        corpus = ["a b", "a c", "a d", "b c"]
        _, vocab = tfidf_fit_transform(
            corpus, TfidfConfig(max_features=2, ngram_max=1, min_df=1))
        # a has df 3; b and c tie at 2 and b wins lexicographically
        assert vocab == ["a", "b"]

    def test_stopword_removal(self):
        config = TfidfConfig(max_features=10, ngram_max=1, stopword_removal=True)
        _, vocab = tfidf_fit_transform(["the cat is here", "a cat was there"], config)
        assert "the" not in vocab and "is" not in vocab
        assert "cat" in vocab

    def test_sublinear_toggle(self):
        heavy = ["cat cat cat cat dog", "dog mouse"]
        raw_m, vocab = tfidf_fit_transform(
            heavy, TfidfConfig(max_features=10, ngram_max=1, sublinear_tf=False))
        sub_m, _ = tfidf_fit_transform(
            heavy, TfidfConfig(max_features=10, ngram_max=1, sublinear_tf=True))
        j_cat = vocab.index("cat")
        j_dog = vocab.index("dog")
        raw_ratio = raw_m[0, j_cat] / raw_m[0, j_dog]
        sub_ratio = sub_m[0, j_cat] / sub_m[0, j_dog]
        assert sub_ratio < raw_ratio  # log damping compresses heavy counts

    def test_zero_row_flagged(self):
        config = TfidfConfig(max_features=10, ngram_max=1, min_df=2)
        vec = TfidfVectorizer(config).fit(["a b", "a c"])
        with pytest.warns(UserWarning, match="no in-vocabulary terms"):
            out = vec.transform(["zzz qqq"])
        assert out.nnz == 0

    def test_ngram_range_validated(self):
        with pytest.raises(ValueError):
            TfidfConfig(ngram_min=1, ngram_max=3)
        with pytest.raises(ValueError):
            TfidfConfig(ngram_min=0)

    def test_transform_uses_training_vocabulary(self):
        vec = TfidfVectorizer(TfidfConfig(max_features=10, ngram_max=1)).fit(["cat dog"])
        out = vec.transform(["cat bird"])
        assert out.shape[1] == 2  # bird is out of vocabulary

    def test_stopword_list_size(self):
        assert len(ENGLISH_STOPWORDS) == 179

    def test_refit_matches_fresh_vectorizer(self):
        # One vectorizer refitted on three train splits, as a sweep does per
        # seed: everything equals what a fresh vectorizer per split gives.
        corpus = two_cluster_corpus(n_p1=20, n_p2=60, seed=4)
        texts = np.asarray(corpus.texts, dtype=object)
        labels = np.asarray(corpus.labels)
        group = np.where(labels == 1, "P1", "P2")
        docs = list(texts) + ["", "zzz qqq"]  # no in-vocabulary terms
        config = TfidfConfig(max_features=40, ngram_max=2, min_df=2)
        shared = TfidfVectorizer(config)
        for seed in range(3):
            train_pos, _ = split_row_positions(group, labels, 0.7, seed)
            fresh = TfidfVectorizer(config).fit(texts[train_pos])
            with pytest.warns(UserWarning, match="no in-vocabulary terms"):
                want = fresh.transform(docs)
            shared.fit(texts[train_pos])
            with pytest.warns(UserWarning, match="no in-vocabulary terms"):
                got = shared.transform(docs)
            assert shared.vocabulary == fresh.vocabulary
            assert shared.idf.tobytes() == fresh.idf.tobytes()
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


class TestTextTsv:
    def test_round_trip_with_escapes(self, tmp_path):
        corpus = TextCorpus(
            ids=("a", "b"), labels=(1, 0),
            texts=("line one\nline two\ttabbed", "back\\slash"),
        )
        path = tmp_path / "corpus.tsv"
        write_text_tsv(corpus, path)
        loaded = load_text_tsv(path)
        assert loaded == corpus

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_text_tsv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tspam\thello\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-integer label"):
            load_text_tsv(path)

    @given(st.text(alphabet=["\\", "t", "n", "x", "\t", "\n"], max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_unescape_matches_reference_loop(self, text):
        def reference(text):  # a plain per-character scan
            out = []
            i = 0
            while i < len(text):
                ch = text[i]
                if ch == "\\" and i + 1 < len(text):
                    nxt = text[i + 1]
                    if nxt == "t":
                        out.append("\t"); i += 2; continue
                    if nxt == "n":
                        out.append("\n"); i += 2; continue
                    if nxt == "\\":
                        out.append("\\"); i += 2; continue
                out.append(ch)
                i += 1
            return "".join(out)

        assert _unescape_text(text) == reference(text)


def toy_dataset(n_per_stratum):
    rows = []
    labels = []
    groups = []
    for (g, l), count in n_per_stratum.items():
        for _ in range(count):
            rows.append([float(len(rows))])
            labels.append(l)
            groups.append(g)
    return LabeledDataset(features=np.array(rows), labels=labels, group=groups,
                          row_ids=np.arange(len(rows)).astype(str))


class TestSplitStratified:
    def test_seventy_thirty(self):
        ds = toy_dataset({("P1", 1): 10})
        train, val = split_stratified(ds, 0.7, seed=0)
        assert train.n == 7 and val.n == 3

    def test_deterministic(self):
        ds = toy_dataset({("P1", 1): 20, ("P2", 0): 30})
        a = split_stratified(ds, 0.7, seed=5)
        b = split_stratified(ds, 0.7, seed=5)
        assert list(a[0].row_ids) == list(b[0].row_ids)
        assert list(a[1].row_ids) == list(b[1].row_ids)

    def test_union_is_input_multiset(self):
        ds = toy_dataset({("P1", 1): 13, ("P2", 0): 17, ("P2", 1): 7})
        train, val = split_stratified(ds, 0.6, seed=2)
        combined = sorted(list(train.row_ids) + list(val.row_ids))
        assert combined == sorted(ds.row_ids)

    def test_per_stratum_counts_within_one(self):
        strata = {("P1", 1): 10, ("P2", 0): 25, ("P2", 1): 9}
        ds = toy_dataset(strata)
        train, _ = split_stratified(ds, 0.7, seed=3)
        for (g, l), count in strata.items():
            got = int(np.sum((train.group == g) & (train.labels == l)))
            assert abs(got - 0.7 * count) <= 1.0

    def test_singleton_stratum_goes_to_train_with_warning(self):
        ds = toy_dataset({("P1", 1): 1, ("P2", 0): 10})
        with pytest.warns(UserWarning, match="stratum"):
            train, val = split_stratified(ds, 0.7, seed=0)
        assert int(np.sum(train.group == "P1")) == 1
        assert int(np.sum(val.group == "P1")) == 0

    def test_bad_fraction_rejected(self):
        ds = toy_dataset({("P1", 1): 4})
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_stratified(ds, frac, seed=0)


class TestDownsampleP2:
    def test_five_to_one_target(self):
        ds = toy_dataset({("P1", 1): 10, ("P2", 0): 100})
        out = downsample_p2(ds, 5.0, seed=0)
        assert out.p1_positions().size == 10
        assert out.p2_positions().size == 50

    def test_small_p2_unchanged(self):
        ds = toy_dataset({("P1", 1): 10, ("P2", 0): 20})
        out = downsample_p2(ds, 5.0, seed=0)
        assert out.n == ds.n

    def test_deterministic(self):
        ds = toy_dataset({("P1", 1): 10, ("P2", 0): 100})
        a = downsample_p2(ds, 2.0, seed=9)
        b = downsample_p2(ds, 2.0, seed=9)
        assert list(a.row_ids) == list(b.row_ids)

    def test_empty_p1_keeps_everything(self):
        ds = toy_dataset({("P2", 0): 30})
        out = downsample_p2(ds, 5.0, seed=0)
        assert out.n == 30

    def test_ceil_rounding(self):
        ds = toy_dataset({("P1", 1): 3, ("P2", 0): 100})
        out = downsample_p2(ds, 2.5, seed=1)
        assert out.p2_positions().size == math.ceil(2.5 * 3)

    def test_bad_ratio_rejected(self):
        ds = toy_dataset({("P1", 1): 3, ("P2", 0): 5})
        with pytest.raises(ValueError):
            downsample_p2(ds, 0.0, seed=0)


class TestLabeledDataset:
    def test_requires_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            LabeledDataset(features=np.empty((0, 2)), labels=[], group=[], row_ids=[])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            LabeledDataset(features=np.ones((2, 1)), labels=[0], group=["P1", "P2"],
                           row_ids=["a", "b"])

    def test_sparse_subset(self):
        feats = sp.csr_matrix(np.arange(12.0).reshape(4, 3))
        ds = LabeledDataset(features=feats, labels=[0, 1, 0, 1],
                            group=["P1", "P1", "P2", "P2"],
                            row_ids=["a", "b", "c", "d"])
        sub = ds.subset([1, 3])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.features.toarray(), feats.toarray()[[1, 3]])
        assert sub.labels.tolist() == [1, 1] and sub.group.tolist() == ["P1", "P2"]
        assert sub.row_ids.tolist() == ["b", "d"]
        with pytest.raises(ValueError, match="at least one row"):
            ds.subset([])

    @given(st.integers(2, 30), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_partition_positions_cover_rows(self, n, d):
        gen = np.random.default_rng(n * 31 + d)
        group = np.where(gen.random(n) < 0.5, "P1", "P2")
        if (group == "P1").all():
            group[0] = "P2"
        ds = LabeledDataset(features=gen.normal(size=(n, d)),
                            labels=gen.integers(0, 2, n), group=group,
                            row_ids=np.arange(n).astype(str))
        merged = np.sort(np.concatenate([ds.p1_positions(), ds.p2_positions()]))
        np.testing.assert_array_equal(merged, np.arange(n))
