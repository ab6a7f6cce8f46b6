import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from distunlearn import rng as rnglib
from distunlearn.data_io import (
    LabeledDataset,
    TextCorpus,
    TfidfConfig,
    TfidfVectorizer,
    _ngrams,
    _tokens,
    _unescape_text,
    downsample_p2,
    load_features_csv,
    load_text_tsv,
    read_schema_file,
    split_row_positions,
    split_stratified,
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

    def test_short_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "id,x0,label,group\na,1.0,0,P1\nb,2.0,1\n")
        with pytest.raises(ValueError, match="row 3 has 3 cells, expected 4"):
            load_features_csv(path, self.SCHEMA)

    def test_non_integer_label_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "id,x0,label,group\na,1.0,1.5,P1\n")
        with pytest.raises(ValueError, match="row 2: non-integer label '1.5'"):
            load_features_csv(path, self.SCHEMA)

    def test_ids_default_to_row_numbers(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x0,label,group\n1.0,0,P1\n2.0,1,P2\n3.0,0,P2\n")
        ds = load_features_csv(path, {"label_col": "label", "group_col": "group"})
        assert list(ds.row_ids) == ["0", "1", "2"]
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0], [3.0]])

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


class ReferenceVectorizer:
    """The vectorizer as a per-document ``Counter`` of gram strings and one
    dict lookup per distinct gram, the form the array one must equal bit for
    bit."""

    def __init__(self, config):
        self.config = config
        self.vocabulary = None
        self.idf = None

    def _counts(self, doc):
        return Counter(_ngrams(_tokens(doc, self.config), self.config))

    def fit(self, corpus):
        docs = list(corpus)
        df = Counter()
        for doc in docs:
            df.update(self._counts(doc).keys())
        candidates = [(term, count) for term, count in df.items() if count >= self.config.min_df]
        if not candidates:
            raise ValueError(
                f"vocabulary is empty after pruning (min_df={self.config.min_df})"
            )
        candidates.sort(key=lambda tc: (-tc[1], tc[0]))
        selected = sorted(term for term, _ in candidates[: self.config.max_features])
        self.vocabulary = {term: j for j, term in enumerate(selected)}
        n_docs = len(docs)
        self.idf = np.array(
            [math.log((1.0 + n_docs) / (1.0 + df[term])) + 1.0 for term in selected]
        )
        return self

    def transform(self, corpus):
        docs = list(corpus)
        idf = self.idf.tolist()
        indptr = [0]
        indices, data, zero_rows = [], [], []
        for row, doc in enumerate(docs):
            counts = sorted((self.vocabulary[g], tf) for g, tf in self._counts(doc).items()
                            if g in self.vocabulary)
            if not counts:
                zero_rows.append(row)
            for j, tf in counts:
                tf_w = 1.0 + math.log(tf) if self.config.sublinear_tf else float(tf)
                indices.append(j)
                data.append(tf_w * idf[j])
            indptr.append(len(indices))
        matrix = sp.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
            shape=(len(docs), len(self.vocabulary)),
        )
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        scale = np.where(norms > 0, norms, 1.0)
        matrix = sp.diags(1.0 / scale) @ matrix
        if zero_rows:
            warnings.warn(
                f"{len(zero_rows)} document(s) have no in-vocabulary terms "
                f"(rows {zero_rows[:10]}{'...' if len(zero_rows) > 10 else ''})",
                stacklevel=2,
            )
        return sp.csr_matrix(matrix)


def column_terms(vec):
    """The fitted vocabulary in column order."""
    return sorted(vec.vocabulary, key=vec.vocabulary.get)


# Words in mixed case, with digits, stopwords and a non-ASCII letter (a
# token boundary); separators of spaces and punctuation.
_WORDS = ["cat", "Cat", "CAT", "dog", "the", "a", "Is", "x1", "2b", "emu", "caf\u00e9"]
_SEPARATORS = [" ", "  ", ", ", "!", "--", "\t", ". "]
_DOCS = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)),
                 max_size=8).map(lambda pairs: "".join(w + sep for w, sep in pairs))
_CONFIGS = st.builds(
    lambda ngrams, **kw: TfidfConfig(ngram_min=ngrams[0], ngram_max=ngrams[1], **kw),
    st.sampled_from([(1, 1), (1, 2), (2, 2)]), max_features=st.integers(1, 50),
    min_df=st.integers(1, 3), sublinear_tf=st.booleans(), lowercase=st.booleans(),
    stopword_removal=st.booleans())


@st.composite
def _fits(draw):
    """(fit corpus, transform corpus) pairs over one pool of documents, so
    documents repeat within and across fits; a transform corpus may be
    empty, and may hold documents drawn afresh, which no fit has seen."""
    pool = draw(st.lists(_DOCS, min_size=1, max_size=10))
    corpus = st.lists(st.sampled_from(pool), max_size=12)
    return [(draw(corpus.filter(bool)), draw(corpus) + draw(st.lists(_DOCS, max_size=3)))
            for _ in range(draw(st.integers(1, 4)))]


def _outcome(make, corpora):
    """What a fit and a transform of ``corpora`` give, failures and warnings
    included, in exactly comparable form."""
    fit_docs, docs = corpora
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            vec = make(fit_docs)
        except ValueError as exc:
            return ("error", str(exc))
        matrices = [vec.transform(fit_docs), vec.transform(docs)]
    return (list(vec.vocabulary.items()), vec.idf.dtype, vec.idf.tobytes(),
            [(type(m), m.shape) + tuple((getattr(m, part).dtype, getattr(m, part).tobytes())
                                        for part in ("data", "indices", "indptr"))
             for m in matrices],
            [str(w.message) for w in caught])


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
        matrix = TfidfVectorizer(TfidfConfig(max_features=10, ngram_max=1)).fit_transform(
            ["x y z", "x y z"])
        np.testing.assert_array_equal(matrix[0].toarray(), matrix[1].toarray())

    def test_min_df_prunes_to_empty(self):
        with pytest.raises(ValueError, match="vocabulary is empty"):
            TfidfVectorizer(TfidfConfig(max_features=10, ngram_max=1, min_df=3)).fit_transform(
                ["a b", "c d"])

    def test_bigrams_included(self):
        vocab = column_terms(TfidfVectorizer(
            TfidfConfig(max_features=100, ngram_min=1, ngram_max=2)).fit(["red cat sat"]))
        assert "red cat" in vocab and "cat sat" in vocab and "cat" in vocab

    def test_vocabulary_ranked_by_document_frequency(self):
        corpus = ["a b", "a c", "a d", "b c"]
        vocab = column_terms(TfidfVectorizer(
            TfidfConfig(max_features=2, ngram_max=1, min_df=1)).fit(corpus))
        # a has df 3; b and c tie at 2 and b wins lexicographically
        assert vocab == ["a", "b"]

    def test_stopword_removal(self):
        config = TfidfConfig(max_features=10, ngram_max=1, stopword_removal=True)
        vocab = column_terms(TfidfVectorizer(config).fit(["the cat is here", "a cat was there"]))
        assert "the" not in vocab and "is" not in vocab
        assert "cat" in vocab

    def test_sublinear_toggle(self):
        heavy = ["cat cat cat cat dog", "dog mouse"]
        raw_vec = TfidfVectorizer(TfidfConfig(max_features=10, ngram_max=1, sublinear_tf=False))
        raw_m = raw_vec.fit_transform(heavy)
        vocab = column_terms(raw_vec)
        sub_m = TfidfVectorizer(
            TfidfConfig(max_features=10, ngram_max=1, sublinear_tf=True)).fit_transform(heavy)
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


    @given(_CONFIGS, _fits())
    @settings(max_examples=200, deadline=None)
    def test_refits_equal_reference_bitwise(self, config, fits):
        # One vectorizer refitted on each corpus in turn, against a fresh
        # reference each time: vocabulary, idf and every CSR array, with its
        # dtype and the order of indices within each row.
        shared = TfidfVectorizer(config)
        for corpora in fits:
            got = _outcome(shared.fit, corpora)
            want = _outcome(ReferenceVectorizer(config).fit, corpora)
            assert got == want

    def test_heavy_counts_equal_reference_bitwise(self):
        # With numpy 2.4 on x86-64, np.log(9170) and np.log(19143) differ
        # from math.log in the last bit; the weights must round as the
        # reference's do.
        corpora = (["cat " * 9170 + "dog", "dog emu"], ["emu " * 19143, "cat dog"])
        config = TfidfConfig(max_features=10, ngram_max=1)
        assert (_outcome(TfidfVectorizer(config).fit, corpora)
                == _outcome(ReferenceVectorizer(config).fit, corpora))


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

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\thello\n\nb\t0\tworld\n", encoding="utf-8")
        assert load_text_tsv(path) == TextCorpus(ids=("a", "b"), labels=(1, 0),
                                                 texts=("hello", "world"))

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

    def test_infinite_ratio_keeps_the_dataset_and_nan_is_rejected(self):
        # the target is compared with the preserve count before its ceiling
        ds = toy_dataset({("P1", 1): 3, ("P2", 0): 100})
        for ratio in (math.inf, 1e308):
            assert downsample_p2(ds, ratio, seed=0) is ds
        with pytest.raises(ValueError, match="ratio must be positive, got nan"):
            downsample_p2(ds, math.nan, seed=0)


def reference_split_row_positions(group, labels, train_fraction, seed):
    """The list-based split that split_row_positions replaced: strata from a
    Python set, positions gathered in lists and sorted at the end."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    group = np.asarray(group)
    labels = np.asarray(labels)
    train_pos, val_pos = [], []
    for g, l in sorted({(str(g), int(l)) for g, l in zip(group, labels)}):
        members = np.flatnonzero((group == g) & (labels == l))
        if members.size < 2:
            warnings.warn(
                f"stratum (group={g}, label={l}) has {members.size} row(s); assigned to train",
                stacklevel=2,
            )
            train_pos.extend(members.tolist())
            continue
        gen = rnglib.generator(seed, "split", g, l)
        perm = members[gen.permutation(members.size)]
        n_train = int(math.floor(train_fraction * members.size + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)
        train_pos.extend(perm[:n_train].tolist())
        val_pos.extend(perm[n_train:].tolist())
    if not val_pos:
        raise ValueError("validation split is empty; dataset too small for this fraction")
    return np.array(sorted(train_pos), dtype=int), np.array(sorted(val_pos), dtype=int)


def reference_downsample_p2(dataset, ratio, seed):
    """The downsampling that downsample_p2 replaced: the drawn preserve rows
    sorted, joined to the forget rows and sorted again."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    p1_pos = dataset.p1_positions()
    p2_pos = dataset.p2_positions()
    if p1_pos.size == 0:
        return dataset
    target = math.ceil(ratio * p1_pos.size)
    if p2_pos.size <= target:
        return dataset
    gen = rnglib.generator(seed, "downsample-p2")
    chosen = p2_pos[np.sort(gen.permutation(p2_pos.size)[:target])]
    return dataset.subset(np.sort(np.concatenate([p1_pos, chosen])))


def split_outcome(split, group, labels, train_fraction, seed):
    """The positions a split returns, or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = split(group, labels, train_fraction, seed)
        except ValueError as exc:
            outcome = str(exc)
    return outcome, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["P1", "P2"]), st.integers(0, 2)),
                     min_size=2, max_size=60),
       train_fraction=st.floats(0.01, 0.99), ratio=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**63 - 1))
def test_split_and_downsample_match_the_list_reference(rows, train_fraction, ratio, seed):
    group = np.array([g for g, _ in rows])
    labels = np.array([l for _, l in rows])
    got, got_warnings = split_outcome(split_row_positions, group, labels, train_fraction, seed)
    want, want_warnings = split_outcome(reference_split_row_positions, group, labels,
                                        train_fraction, seed)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    ds = LabeledDataset(features=np.zeros((len(rows), 1)), labels=labels, group=group,
                        row_ids=np.arange(len(rows)).astype(str))
    assert (downsample_p2(ds, ratio, seed).row_ids.tolist()
            == reference_downsample_p2(ds, ratio, seed).row_ids.tolist())


def dataset(features=np.eye(2), labels=(0, 1), group=("P1", "P2")):
    return LabeledDataset(features=features, labels=labels, group=group, row_ids=["a", "b"])


SCHEMA = {"label_col": "label", "group_col": "group"}


@pytest.mark.parametrize("call, match", [
    (lambda tmp: dataset(features=np.ones(2)), "features must be a 2-d matrix"),
    (lambda tmp: dataset(group=("P1", "P3")), r"unknown group tags: \['P3'\]"),
    (lambda tmp: dataset(labels=(0, -1)), "labels must be non-negative"),
    (lambda tmp: TfidfConfig(max_features=0), "max_features must be >= 1"),
    (lambda tmp: TfidfConfig(min_df=0), "min_df must be >= 1"),
    (lambda tmp: TextCorpus(ids=("a", "b"), labels=(0,), texts=("x", "y")), "equal length"),
    (lambda tmp: TextCorpus(ids=(), labels=(), texts=()), "corpus is empty"),
    (lambda tmp: TfidfVectorizer(TfidfConfig()).fit([]), "corpus is empty"),
    (lambda tmp: TfidfVectorizer(TfidfConfig()).transform(["x"]), "not fitted"),
    (lambda tmp: load_features_csv(write_csv(tmp / "a.csv", "group,x\nP1,1\n"),
                                   {"group_col": "group"}), "missing required key 'label_col'"),
    (lambda tmp: load_features_csv(write_csv(tmp / "a.csv", ""), SCHEMA), "file is empty"),
    (lambda tmp: load_features_csv(write_csv(tmp / "a.csv", "label,group\n1,P1\n"), SCHEMA),
     "no feature columns"),
    (lambda tmp: load_text_tsv(write_csv(tmp / "a.tsv", "")), "corpus is empty"),
])
def test_data_inputs_rejected(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)


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
