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
import warnings
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
    "forget_tags",
    "load_features_csv",
    "read_schema_file",
    "load_text_tsv",
    "write_text_tsv",
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
        bad = set(np.unique(group).tolist()) - {P1, P2}
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


def forget_tags(source: TextCorpus | LabeledDataset, p1_label: int,
                min_rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Labels and group tags of a source's rows; a text corpus's forget (P1)
    rows are those labelled ``p1_label``.  Fewer than ``min_rows`` P1 rows
    labelled ``p1_label`` raise a ValueError naming the labels present."""
    labels = np.asarray(source.labels, dtype=int)
    group = (source.group if isinstance(source, LabeledDataset)
             else np.where(labels == p1_label, P1, P2))
    n = np.count_nonzero((group == P1) & (labels == p1_label))
    if n < min_rows:
        raise ValueError(f"{n} forget row(s) carry pipeline.p1_label={p1_label}, need at least "
                         f"{min_rows}; the labels present are {np.unique(labels).tolist()}")
    return labels, group


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

    Each distinct document is tokenized once per vectorizer: it is kept as
    the ids of its distinct n-grams, over one table of every gram seen, and
    their counts, and every later ``fit`` or ``transform`` reads them.
    Refitting one vectorizer on another corpus gives the same vocabulary, idf
    and matrices as a fresh one.  The kept counts take memory linear in the
    text seen: on the bundled synthetic corpus, about 2.4 bytes per
    character with unigrams and 10 with bigrams.
    """

    def __init__(self, config: TfidfConfig):
        self.config = config
        self.vocabulary: dict[str, int] | None = None
        self.idf: np.ndarray | None = None
        self._gram_ids: dict[str, int] = {}
        self._doc_counts: dict[str, np.ndarray] = {}
        self._columns: np.ndarray | None = None

    def _count_matrix(self, docs) -> sp.csr_matrix:
        """Gram counts of ``docs``, one row each, one column per known gram."""
        rows = []
        for doc in docs:
            counts = self._doc_counts.get(doc)
            if counts is None:
                ids = [self._gram_ids.setdefault(g, len(self._gram_ids))
                       for g in _ngrams(_tokens(doc, self.config), self.config)]
                # Two rows: the distinct gram ids, ascending, and their counts.
                counts = np.array(np.unique(np.array(ids, dtype=np.int32), return_counts=True),
                                  dtype=np.int32)
                self._doc_counts[doc] = counts
            rows.append(counts)
        indptr = np.cumsum([0] + [r.shape[1] for r in rows], dtype=np.int32)
        ids, counts = np.concatenate(rows, axis=1) if rows else np.zeros((2, 0), np.int32)
        return sp.csr_matrix((counts, ids, indptr), shape=(len(rows), len(self._gram_ids)))

    def fit(self, corpus) -> "TfidfVectorizer":
        docs = list(corpus)
        if not docs:
            raise ValueError("corpus is empty")
        matrix = self._count_matrix(docs)
        df = np.bincount(matrix.indices, minlength=matrix.shape[1])
        candidates = np.flatnonzero(df >= self.config.min_df)
        if not candidates.size:
            raise ValueError(
                f"vocabulary is empty after pruning (min_df={self.config.min_df})"
            )
        terms = np.array(list(self._gram_ids))[candidates]
        top = np.lexsort((terms, -df[candidates]))[: self.config.max_features]
        top = top[np.argsort(terms[top])]
        self._columns = candidates[top]
        self.vocabulary = {term: j for j, term in enumerate(terms[top].tolist())}
        n_docs = len(docs)
        self.idf = np.array(
            [math.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in df[self._columns].tolist()]
        )
        return self

    def transform(self, corpus) -> sp.csr_matrix:
        if self.vocabulary is None:
            raise ValueError("vectorizer is not fitted")
        matrix = self._count_matrix(list(corpus))[:, self._columns]
        # Ascending here, so the scaling product below leaves each row in
        # descending column order; training sums rows in stored order.
        matrix.sort_indices()
        tf = matrix.data
        if self.config.sublinear_tf:
            # math.log, not np.log, which may round the last bit differently.
            tf = np.array([1.0 + math.log(t) for t in range(1, tf.max(initial=1) + 1)])[tf - 1]
        matrix.data = tf * self.idf[matrix.indices]
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        scale = np.where(norms > 0, norms, 1.0)
        zero_rows = np.flatnonzero(norms == 0).tolist()
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


def split_row_positions(group, labels, train_fraction: float, seed: int):
    """Stratified train/validation row positions over (group, label) strata.

    Per stratum the train count is the rounded exact fraction (within 1 of
    it); strata with fewer than 2 rows go entirely to train, with a warning,
    and a split left with no validation row raises ValueError.  Deterministic
    per seed; the two position arrays are disjoint, exhaustive, and sorted in
    original row order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    pairs = np.rec.fromarrays([np.asarray(group), np.asarray(labels, dtype=int)])
    strata, stratum = np.unique(pairs, return_inverse=True)
    # A stable sort lists each stratum's rows together, in row order.
    by_stratum = np.split(np.argsort(stratum, kind="stable"),
                          np.cumsum(np.bincount(stratum))[:-1])
    train = np.zeros(stratum.size, dtype=bool)
    for (g, l), members in zip(strata.tolist(), by_stratum):
        if members.size < 2:
            warnings.warn(
                f"stratum (group={g}, label={l}) has {members.size} row(s); assigned to train",
                stacklevel=2,
            )
            train[members] = True
            continue
        gen = rnglib.generator(seed, "split", g, l)
        n_train = int(math.floor(train_fraction * members.size + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)
        train[members[gen.permutation(members.size)[:n_train]]] = True
    if train.all():
        raise ValueError("validation split is empty; dataset too small for this fraction")
    return np.flatnonzero(train), np.flatnonzero(~train)


def split_stratified(dataset: LabeledDataset, train_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split of a dataset into (train, validation)."""
    train_pos, val_pos = split_row_positions(dataset.group, dataset.labels,
                                             train_fraction, seed)
    return dataset.subset(train_pos), dataset.subset(val_pos)


def downsample_p2(dataset: LabeledDataset, ratio: float, seed: int) -> LabeledDataset:
    """Subsample the preserve partition to ceil(ratio * |p1|) rows.

    All forget-side rows are kept; if the preserve partition is already at or
    below the target (an infinite ratio included) it is returned unchanged.
    With an empty forget partition the preserve rows are all kept (an empty
    dataset would be useless to every caller).
    """
    if not ratio > 0:  # NaN included
        raise ValueError(f"ratio must be positive, got {ratio!r}")
    keep = dataset.group == P1
    if not keep.any():
        return dataset
    target = float(ratio) * int(np.count_nonzero(keep))  # inf, not a numpy overflow warning
    p2_pos = np.flatnonzero(~keep)
    if p2_pos.size - 1 < target:  # ceil(target) >= |p2|, checked before the ceiling
        return dataset
    gen = rnglib.generator(seed, "downsample-p2")
    keep[p2_pos[gen.permutation(p2_pos.size)[:math.ceil(target)]]] = True
    return dataset.subset(np.flatnonzero(keep))
