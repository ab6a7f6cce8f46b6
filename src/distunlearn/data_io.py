"""Dataset ingestion, TF-IDF featurization, splits, and downsampling.

File formats
------------
Feature CSV: a header row names the columns; a sidecar schema (key=value
lines: ``label_col``, ``group_col``, optional ``id_col``) assigns roles and
every remaining column is a feature.  Group tags must be P1 or P2.  Parsing
is locale-independent (dot decimal separator only).

Text corpus TSV: three tab-separated columns ``id``, ``label`` (integer),
``text``; tabs, newlines, and backslashes inside the text are escaped as
``\\t``, ``\\n``, ``\\\\``.

TF-IDF
------
Tokenization lowercases (configurable) and splits on runs of
non-alphanumeric characters; n-grams are built over the token stream and
joined with single spaces.  The vocabulary keeps the ``max_features``
candidates with highest document frequency (ties toward the
lexicographically smaller term) among those with document frequency >=
``min_df``, and columns are ordered lexicographically.  Weights are
``tf' * idf`` with ``tf' = 1 + log(tf)`` when sublinear TF is on (raw count
otherwise) and ``idf = log((1 + N) / (1 + df)) + 1``; rows are l2-normalized.
"""

from __future__ import annotations

import csv
import math
import re
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import rng as rnglib
from .stopwords import ENGLISH_STOPWORDS

__all__ = [
    "LabeledDataset",
    "TfidfConfig",
    "TfidfVectorizer",
    "TextCorpus",
    "load_features_csv",
    "read_schema_file",
    "load_text_tsv",
    "write_text_tsv",
    "tfidf_fit_transform",
    "split_stratified",
    "downsample_p2",
]

P1, P2 = "P1", "P2"
_TOKEN_SPLIT = re.compile(r"[^0-9a-zA-Z]+")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix + labels + group tags + stable row ids.

    ``features`` is either a dense ndarray or a CSR matrix; ``group`` holds
    the tag P1 (forget) or P2 (preserve) per row.
    """

    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray
    group: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        group = np.asarray(self.group, dtype="U2")
        row_ids = np.asarray(self.row_ids)
        feats = self.features
        if not sp.issparse(feats):
            feats = np.asarray(feats, dtype=float)
            if feats.ndim != 2:
                raise ValueError("features must be a 2-d matrix")
        n = feats.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one row")
        for name, arr in (("labels", labels), ("group", group), ("row_ids", row_ids)):
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != row count {n}")
        bad = set(np.unique(group)) - {P1, P2}
        if bad:
            raise ValueError(f"unknown group tags: {sorted(bad)}")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative integers")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "row_ids", row_ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def p1_positions(self) -> np.ndarray:
        return np.flatnonzero(self.group == P1)

    def p2_positions(self) -> np.ndarray:
        return np.flatnonzero(self.group == P2)

    def subset(self, positions) -> "LabeledDataset":
        """The rows at ``positions``, in that order.

        Rows of a validated dataset are valid, so only emptiness is checked.
        """
        pos = np.asarray(positions, dtype=int)
        if pos.size == 0:
            raise ValueError("dataset must contain at least one row")
        out = object.__new__(LabeledDataset)
        for name in ("features", "labels", "group", "row_ids"):
            object.__setattr__(out, name, getattr(self, name)[pos])
        return out


@dataclass(frozen=True)
class TfidfConfig:
    max_features: int = 40000
    ngram_min: int = 1
    ngram_max: int = 2
    sublinear_tf: bool = True
    min_df: int = 1
    lowercase: bool = True
    stopword_removal: bool = False

    def __post_init__(self):
        if not (1 <= self.ngram_min <= self.ngram_max <= 2):
            raise ValueError("n-gram range must satisfy 1 <= ngram_min <= ngram_max <= 2")
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")


@dataclass(frozen=True)
class TextCorpus:
    """A parsed text corpus: parallel ids, integer labels, and documents."""

    ids: tuple[str, ...]
    labels: tuple[int, ...]
    texts: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.ids) == len(self.labels) == len(self.texts)):
            raise ValueError("ids, labels, texts must have equal length")
        if len(self.ids) == 0:
            raise ValueError("corpus is empty")


def _tokens(text: str, config: TfidfConfig) -> list[str]:
    if config.lowercase:
        text = text.lower()
    toks = [t for t in _TOKEN_SPLIT.split(text) if t]
    if config.stopword_removal:
        toks = [t for t in toks if t not in ENGLISH_STOPWORDS]
    return toks


def _ngrams(tokens: list[str], config: TfidfConfig) -> list[str]:
    grams = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        grams.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return grams


class TfidfVectorizer:
    """Deterministic TF-IDF vectorizer (fit on one corpus, transform any).

    Each distinct document is tokenized once per vectorizer: its n-gram
    counts are kept, keyed by the text, and every later ``fit`` or
    ``transform`` reads them.  Refitting one vectorizer on another corpus
    gives the same vocabulary, idf and matrices as a fresh one.  The kept
    counts take memory linear in the text seen: on the bundled synthetic
    corpus, about 4 bytes per character with unigrams and 9 with bigrams.
    """

    def __init__(self, config: TfidfConfig):
        self.config = config
        self.vocabulary: dict[str, int] | None = None
        self.idf: np.ndarray | None = None
        self._gram_counts: dict[str, Counter] = {}

    def _counts(self, doc: str) -> Counter:
        counts = self._gram_counts.get(doc)
        if counts is None:
            # Interned, so documents share one copy of each gram string.
            counts = Counter(map(sys.intern, _ngrams(_tokens(doc, self.config), self.config)))
            self._gram_counts[doc] = counts
        return counts

    def fit(self, corpus) -> "TfidfVectorizer":
        docs = list(corpus)
        if not docs:
            raise ValueError("corpus is empty")
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

    def transform(self, corpus) -> sp.csr_matrix:
        if self.vocabulary is None:
            raise ValueError("vectorizer is not fitted")
        docs = list(corpus)
        vocabulary = self.vocabulary
        idf = self.idf.tolist()
        sublinear = self.config.sublinear_tf
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        zero_rows = []
        for row, doc in enumerate(docs):
            counts = sorted((vocabulary[g], tf) for g, tf in self._counts(doc).items()
                            if g in vocabulary)
            if not counts:
                zero_rows.append(row)
            for j, tf in counts:
                tf_w = 1.0 + math.log(tf) if sublinear else float(tf)
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

    def fit_transform(self, corpus) -> sp.csr_matrix:
        return self.fit(corpus).transform(corpus)


def tfidf_fit_transform(corpus, config: TfidfConfig) -> tuple[sp.csr_matrix, list[str]]:
    """Fit TF-IDF on a corpus and return (matrix, vocabulary in column order)."""
    vec = TfidfVectorizer(config)
    matrix = vec.fit_transform(corpus)
    vocab = sorted(vec.vocabulary, key=vec.vocabulary.get)
    return matrix, vocab


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def read_schema_file(path) -> dict[str, str]:
    """Parse a sidecar schema of key=value lines (# starts a comment)."""
    schema = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        schema[key.strip()] = value.strip()
    return schema


def load_features_csv(path, schema: dict[str, str]) -> LabeledDataset:
    """Load a feature CSV with roles assigned by a schema mapping.

    ``schema`` must provide ``label_col`` and ``group_col``; ``id_col`` is
    optional (row numbers are used when absent).  Every other column is a
    feature, in header order.
    """
    for required in ("label_col", "group_col"):
        if required not in schema:
            raise ValueError(f"schema is missing required key {required!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = list(reader)
    positions = {name: i for i, name in enumerate(header)}
    role_cols = {}
    for role in ("label_col", "group_col", "id_col"):
        name = schema.get(role)
        if name is None:
            continue
        if name not in positions:
            raise ValueError(f"{path}: schema column {name!r} ({role}) not in header")
        role_cols[role] = positions[name]
    feature_cols = [i for i, name in enumerate(header) if i not in role_cols.values()]
    if not feature_cols:
        raise ValueError(f"{path}: no feature columns left after role assignment")

    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    features = np.empty((n, len(feature_cols)))
    labels = np.empty(n, dtype=int)
    group = np.empty(n, dtype="U2")
    ids = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for c, col in enumerate(feature_cols):
            cell = row[col]
            try:
                features[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + 2}, column {header[col]!r}: "
                    f"non-numeric feature cell {cell!r}"
                ) from None
        try:
            labels[r] = int(row[role_cols["label_col"]])
        except ValueError:
            raise ValueError(
                f"{path}: row {r + 2}: non-integer label {row[role_cols['label_col']]!r}"
            ) from None
        tag = row[role_cols["group_col"]].strip().upper()
        if tag not in (P1, P2):
            raise ValueError(f"{path}: row {r + 2}: unknown group tag {tag!r} (want P1 or P2)")
        group[r] = tag
        ids.append(row[role_cols["id_col"]] if "id_col" in role_cols else str(r))
    return LabeledDataset(features=features, labels=labels, group=group,
                          row_ids=np.array(ids, dtype=object))


def _escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPE = re.compile(r"\\([tn\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def _unescape_text(text: str) -> str:
    """Undo ``_escape_text``; a backslash before any other character, or at
    the end, stays as it is."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def load_text_tsv(path) -> TextCorpus:
    """Load an id/label/text corpus from the three-column TSV format."""
    ids, labels, texts = [], [], []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(parts)}")
            doc_id, label, text = parts
            try:
                labels.append(int(label))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer label {label!r}") from None
            ids.append(doc_id)
            texts.append(_unescape_text(text))
    if not ids:
        raise ValueError(f"{path}: corpus is empty")
    return TextCorpus(ids=tuple(ids), labels=tuple(labels), texts=tuple(texts))


def write_text_tsv(corpus: TextCorpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc_id, label, text in zip(corpus.ids, corpus.labels, corpus.texts):
            fh.write(f"{doc_id}\t{label}\t{_escape_text(text)}\n")


# ---------------------------------------------------------------------------
# splits and downsampling
# ---------------------------------------------------------------------------


def _stratum_keys(group: np.ndarray, labels: np.ndarray):
    return sorted({(str(g), int(l)) for g, l in zip(group, labels)})


def split_row_positions(group, labels, train_fraction: float, seed: int):
    """Stratified train/validation row positions over (group, label) strata.

    Per stratum the train count is the rounded exact fraction (within 1 of
    it); strata with fewer than 2 rows go entirely to train, with a warning.
    Deterministic per seed; the two position arrays are disjoint, exhaustive,
    and sorted in original row order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    group = np.asarray(group)
    labels = np.asarray(labels)
    train_pos: list[int] = []
    val_pos: list[int] = []
    for g, l in _stratum_keys(group, labels):
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
    return np.array(sorted(train_pos), dtype=int), np.array(sorted(val_pos), dtype=int)


def split_stratified(dataset: LabeledDataset, train_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split of a dataset into (train, validation)."""
    train_pos, val_pos = split_row_positions(dataset.group, dataset.labels,
                                             train_fraction, seed)
    if val_pos.size == 0:
        raise ValueError("validation split is empty; dataset too small for this fraction")
    return dataset.subset(train_pos), dataset.subset(val_pos)


def downsample_p2(dataset: LabeledDataset, ratio: float, seed: int) -> LabeledDataset:
    """Subsample the preserve partition to ceil(ratio * |p1|) rows.

    All forget-side rows are kept; if the preserve partition is already at or
    below the target it is returned unchanged.  With an empty forget
    partition the preserve rows are all kept (an empty dataset would be
    useless to every caller).
    """
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
    keep = np.sort(np.concatenate([p1_pos, chosen]))
    return dataset.subset(keep)
