"""Bundled synthetic datasets for demos and self-contained pipeline tests.

``two_cluster_corpus`` builds a small two-topic text corpus: forget-side
documents mix topic-specific words with a shared vocabulary, preserve-side
documents do the same with their own topic words.  The overlap fraction
controls how much signal survives deletion, which is what makes the corpus
useful for exercising the deletion sweep end to end without any external
download.
"""

from __future__ import annotations

from . import rng as rnglib
from .data_io import TextCorpus

__all__ = ["two_cluster_corpus"]

DOC_LEN = (8, 16)  # shortest and longest document, in tokens


def two_cluster_corpus(n_p1: int = 200, n_p2: int = 800, seed: int = 0,
                       n_specific: int = 20, n_shared: int = 60,
                       specific_frac: float = 0.35) -> TextCorpus:
    """Two-cluster corpus: label 1 = forget topic, label 0 = preserve topic.

    Each document draws its length uniformly from ``DOC_LEN`` (both ends
    included); a token comes from the cluster's specific vocabulary with
    probability ``specific_frac`` and from the shared vocabulary otherwise.
    """
    if n_p1 < 1 or n_p2 < 1:
        raise ValueError("both clusters need at least one document")
    for name, size in (("n_specific", n_specific), ("n_shared", n_shared)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1 (a vocabulary needs a word), got {size}")
    if not 0.0 < specific_frac < 1.0:
        raise ValueError("specific_frac must lie in (0, 1)")
    spam_words = [f"spamword{i:02d}" for i in range(n_specific)]
    ham_words = [f"hamword{i:02d}" for i in range(n_specific)]
    shared = [f"common{i:02d}" for i in range(n_shared)]
    gen = rnglib.generator(seed, "two-cluster-corpus")

    ids, labels, texts = [], [], []
    for label, count, specific in ((1, n_p1, spam_words), (0, n_p2, ham_words)):
        for i in range(count):
            length = int(gen.integers(DOC_LEN[0], DOC_LEN[1] + 1))
            tokens = []
            for _ in range(length):
                if gen.random() < specific_frac:
                    tokens.append(specific[int(gen.integers(0, len(specific)))])
                else:
                    tokens.append(shared[int(gen.integers(0, len(shared)))])
            ids.append(f"{'p1' if label == 1 else 'p2'}-{i:04d}")
            labels.append(label)
            texts.append(" ".join(tokens))
    return TextCorpus(ids=tuple(ids), labels=tuple(labels), texts=tuple(texts))
