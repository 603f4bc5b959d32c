"""Text similarity, the instruction-to-API retriever, and the chunked
documentation index used to look up error details.

The default similarity model is deterministic TF-IDF token cosine so the
whole pipeline runs offline; any embedding service can be dropped in by
implementing :class:`SimilarityModel`.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .doc_model import ApiDocument, ApiSpec
from .errors import EmptyDocumentError, ProtocolError
from .gateways import HTTP_TIMEOUT, ChatMessage, post_json

__all__ = [
    "SimilarityModel",
    "TfidfSimilarity",
    "RemoteEmbeddingSimilarity",
    "default_similarity",
    "RelevantSet",
    "PreparedDoc",
    "retrieve_relevant_apis",
    "Chunk",
    "ChunkIndex",
    "build_chunk_index",
    "retrieve_error_message",
    "RetrievedMessage",
    "api_documentation_text",
    "split_sentences",
]

_TOKEN = re.compile(r"[a-z0-9]+")

# TfidfSimilarity.ranker ranks at least this many texts over numpy posting
# arrays and fewer over dicts: below it the arrays' fixed cost per query
# outweighs the postings they save (measured by tools/rank_crossover.py).
ARRAY_RANKING_MIN_TEXTS = 72


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``[a-z0-9]`` in ``text.lower()``, in order:
    every other character separates tokens."""
    return _TOKEN.findall(text.lower())


class SimilarityModel(ABC):
    """Scores text pairs in [0, 1] and embeds text as fixed-length vectors."""

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        """L2-normalized vector; length is constant per model instance."""

    def score(self, text_a: str, text_b: str) -> float:
        """Cosine of the two embeddings, clamped to [0, 1]."""
        sim = float(np.dot(self.embed(text_a), self.embed(text_b)))
        return min(1.0, max(0.0, sim))

    def ranker(self, texts: Sequence[str]) -> Callable[[str], list[float]]:
        """Scorer of one query against every text of *texts*: it returns
        ``[self.score(query, t) for t in texts]``. Models that can
        precompute per-text state override this."""
        texts = tuple(texts)
        return lambda query: [self.score(query, text) for text in texts]


class TfidfSimilarity(SimilarityModel):
    """TF-IDF weighted token cosine.

    tf is the raw token count; idf(t) = ln((1+n) / (1+df(t))) + 1 over the
    fitted corpus, with df = 0 for unseen tokens. ``embed`` projects onto
    the corpus vocabulary (out-of-vocabulary tokens drop out); ``score``
    works on the token union of the two texts, so identical non-trivial
    texts always score 1.0 even when their words are out of vocabulary.

    Both notions are needed. Error retrieval compares ``embed`` vectors,
    like the chunk vectors it ranks, so that a remote embedder, which
    offers nothing but ``embed``, can take its place. Relevant-API ranking
    and the name cascades use ``score``, whose token union keeps a
    hallucinated, out-of-vocabulary name matchable against a documented one
    (E2.3, E3.3); projected onto the vocabulary, its unseen tokens would
    drop out.
    """

    def __init__(self, corpus: Iterable[str]):
        docs = [set(tokenize(text)) for text in corpus]
        self._n_docs = len(docs)
        df: dict[str, int] = {}
        for doc in docs:
            for token in doc:
                df[token] = df.get(token, 0) + 1
        self._vocab = {t: i for i, t in enumerate(sorted(df))}
        self._idf = {t: self._idf_value(count) for t, count in df.items()}
        self._unseen_idf = self._idf_value(0)

    def _idf_value(self, df: int) -> float:
        return math.log((1 + self._n_docs) / (1 + df)) + 1.0

    def _weights(self, text: str) -> dict[str, float]:
        counts: dict[str, int] = {}
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
        return {
            t: c * self._idf.get(t, self._unseen_idf) for t, c in counts.items()
        }

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(len(self._vocab))
        for token, weight in self._weights(text).items():
            idx = self._vocab.get(token)
            if idx is not None:
                vec[idx] = weight
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def score(self, text_a: str, text_b: str) -> float:
        wa = self._weights(text_a)
        wb = self._weights(text_b)
        if wa == wb:
            # Equal token multisets (including reorderings) score exactly 1.
            return 1.0 if wa else 0.0
        dot = sum(w * wb.get(t, 0.0) for t, w in wa.items())
        norm_a, norm_b = _norm(wa), _norm(wb)
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return min(1.0, max(0.0, dot / (norm_a * norm_b)))

    def ranker(self, texts: Sequence[str]) -> Callable[[str], list[float]]:
        """Inverted-index scorer, equal to ``score`` bit for bit.

        Each text's weights and norm are computed once, and each token lists
        the texts holding it with their weights, so a query visits only the
        texts that share a token with it. Below ``ARRAY_RANKING_MIN_TEXTS``
        texts the lists are dicts walked one posting at a time; from there
        on they are numpy arrays (see ``_array_ranker``). The floats are
        ``score``'s:

        - a dot product starts from ``0.0`` and adds the query's products in
          the query's token order, as ``score`` sums them; the ``0.0`` terms
          ``score`` adds for tokens the text lacks change no sum;
        - every idf is at least 1, so a norm is 0.0 only for an empty text,
          which shares no token; a text sharing none keeps 0.0, as ``score``
          gives for a zero norm, a disjoint pair and an empty equal pair;
        - a text whose weights equal the query's scores 1.0, as ``score``
          overrides; any other is ``dot / (norm_a * norm_b)`` capped at
          1.0, positive so that the clamp at 0.0 never acts.

        The array path keeps each of these:

        - ``np.bincount`` adds its weights one by one, in input order, to
          an output of 0.0s, and the input holds the query's tokens in the
          query's order, so each text's dot product is the same sum in the
          same order; every product is one float64 multiplication, as in
          ``score``, and ``np.minimum`` caps each quotient at 1.0;
        - an empty text, of norm 0.0, is divided by 1.0 instead, and its
          dot product, 0.0, stays 0.0; so does every text sharing no token;
        - a text's weights equal the query's exactly when it holds as many
          tokens as the query and, for every query token, holds it with the
          query's weight; a second ``np.bincount`` counts those tokens, and
          such texts score 1.0; an empty query shares no token and keeps
          0.0 everywhere, as ``score`` gives for an empty equal pair.
        """
        weights = [self._weights(text) for text in texts]
        norms = [_norm(w) for w in weights]
        if len(weights) >= ARRAY_RANKING_MIN_TEXTS:
            return self._array_ranker(weights, norms)
        postings: dict[str, list[tuple[int, float]]] = {}
        for i, wb in enumerate(weights):
            for token, w in wb.items():
                postings.setdefault(token, []).append((i, w))

        def rank(query: str) -> list[float]:
            wa = self._weights(query)
            dots: dict[int, float] = {}
            for token, w in wa.items():
                for i, wb_t in postings.get(token, ()):
                    dots[i] = dots.get(i, 0.0) + w * wb_t
            scores = [0.0] * len(weights)
            norm_a = _norm(wa)
            for i, dot in dots.items():
                if weights[i] == wa:
                    scores[i] = 1.0
                else:
                    cos = dot / (norm_a * norms[i])
                    scores[i] = cos if cos < 1.0 else 1.0
            return scores

        return rank

    def _array_ranker(
        self, weights: list[dict[str, float]], norms: list[float]
    ) -> Callable[[str], list[float]]:
        """``ranker`` over numpy postings: per token, the indices of the
        texts holding it and their weights. A query gathers its tokens'
        postings and sums them with ``np.bincount``, a fixed number of
        numpy calls in place of one Python step per posting. It holds the
        postings, one norm and one token count a text: no weights dict."""
        n = len(weights)
        indices: dict[str, list[int]] = {}
        values: dict[str, list[float]] = {}
        for i, wb in enumerate(weights):
            for token, w in wb.items():
                indices.setdefault(token, []).append(i)
                values.setdefault(token, []).append(w)
        postings = {
            token: (np.array(ix, dtype=np.intp), np.array(values[token]))
            for token, ix in indices.items()
        }
        divisors = np.array([norm or 1.0 for norm in norms])
        sizes = np.array([len(wb) for wb in weights])

        def rank(query: str) -> list[float]:
            wa = self._weights(query)
            ixs, ws, qw, lengths = [], [], [], []
            for token, w in wa.items():
                posting = postings.get(token)
                if posting is not None:
                    ixs.append(posting[0])
                    ws.append(posting[1])
                    qw.append(w)
                    lengths.append(len(posting[0]))
            if not ixs:
                return [0.0] * n
            ix = np.concatenate(ixs)
            wq = np.repeat(qw, lengths)
            wb = np.concatenate(ws)
            dots = np.bincount(ix, wq * wb, n)
            scores = np.minimum(dots / (_norm(wa) * divisors), 1.0)
            matched = np.bincount(ix, wq == wb, n)
            scores[(matched == len(wa)) & (sizes == len(wa))] = 1.0
            return scores.tolist()

        return rank


def _norm(weights: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in weights.values()))


EMBED_CACHE_SIZE = 1024  # texts whose vectors a remote embedder keeps


class RemoteEmbeddingSimilarity(SimilarityModel):
    """Drop-in embedding service adapter.

    Sends ``{"input": [text], "model": name}`` and reads
    ``data[0].embedding``, which must be a non-empty flat list of numbers;
    vectors are L2-normalized, and scoring is the inherited clamped cosine.
    The first response pins the vector length; any later deviation is a
    protocol error.

    A ranker holds the vectors of its texts (a prepared doc's descriptions
    and names) from its first query on. Every other text goes through a
    cache of the last ``EMBED_CACHE_SIZE`` texts used: chunking an API,
    which embeds a sentence again in each similarity it takes part in,
    asks for it once, and the queries of the dynamic loop, nearly all new,
    do not pile up.
    """

    def __init__(self, base_url: str, model_name: str, api_key: str = ""):
        self._url = base_url.rstrip("/") + "/embeddings"
        self._model_name = model_name
        self._api_key = api_key
        self._dim: int | None = None
        self._cached_embed = functools.lru_cache(maxsize=EMBED_CACHE_SIZE)(self._fetch)

    def embed(self, text: str) -> np.ndarray:
        return self._cached_embed(text)

    def ranker(self, texts: Sequence[str]) -> Callable[[str], list[float]]:
        """Scorer equal to ``score`` bit for bit that embeds *texts* on its
        first query and keeps their vectors, so no later query, however
        many pass through the cache, makes it ask for them again. A lock
        makes threads racing on the first query embed them once."""
        texts = tuple(texts)
        vectors: list[np.ndarray] = []
        lock = threading.Lock()

        def rank(query: str) -> list[float]:
            with lock:
                if not vectors:
                    vectors.extend([self.embed(text) for text in texts])
            query_vec = self.embed(query)
            return [min(1.0, max(0.0, float(np.dot(query_vec, v)))) for v in vectors]

        return rank

    def _fetch(self, text: str) -> np.ndarray:
        payload = {"input": [text], "model": self._model_name}
        response = post_json(self._url, payload, self._api_key, HTTP_TIMEOUT)
        try:
            embedding = response.json()["data"][0]["embedding"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if not (
            isinstance(embedding, list)
            and embedding
            and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in embedding
            )
        ):
            raise ProtocolError("embedding is not a non-empty flat list of numbers")
        vector = np.asarray(embedding, dtype=float)
        if self._dim is None:
            self._dim = vector.shape[0]
        elif vector.shape[0] != self._dim:
            raise ProtocolError(
                f"embedding length changed from {self._dim} to {vector.shape[0]}"
            )
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        return vector


def api_documentation_text(api: ApiSpec) -> str:
    """All retrievable text of one API: description, parameter
    descriptions, and exception messages rendered as ``Error code: message``."""
    parts = [api.description]
    parts.extend(p.description for p in api.params)
    parts.extend(f"Error {code}: {message}" for code, message in api.exceptions)
    return "\n".join(part for part in parts if part)


def default_similarity(doc: ApiDocument) -> TfidfSimilarity:
    """TF-IDF model with idf fitted on *doc*: one corpus entry per API, its
    name plus all documentation text."""
    corpus = [f"{a.name}\n{api_documentation_text(a)}" for a in doc.apis]
    return TfidfSimilarity(corpus)


@dataclass(frozen=True)
class RelevantSet:
    """Top-k APIs ranked by instruction similarity, scores non-increasing."""

    entries: tuple[tuple[str, float], ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.entries)


def retrieve_relevant_apis(
    instruction: str, prepared: PreparedDoc, k: int
) -> RelevantSet:
    """Rank the APIs of the prepared doc by score(instruction, description);
    keep the top min(k, |doc|).

    Ties keep document order.
    """
    apis = prepared.doc.apis
    if not apis:
        raise EmptyDocumentError("cannot retrieve from an empty document")
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = prepared.rank(instruction)
    top = heapq.nlargest(k, range(len(scores)), key=scores.__getitem__)
    return RelevantSet(tuple((apis[i].name, scores[i]) for i in top))


_SENTENCE_SPLIT = re.compile(r"(?<=[.?!])\s+|\n+")


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace, and on
    newlines."""
    return [s.strip() for s in _SENTENCE_SPLIT.split(text) if s.strip()]


@dataclass(frozen=True)
class Chunk:
    """A block of semantically adjacent sentences from one API's docs."""

    api_name: str
    sentences: tuple[str, ...]
    text: str
    vector: np.ndarray


class ChunkIndex:
    """Per-API chunk store of one document; vectors are the chunk-text
    embeddings.

    ``for_api(name)`` chunks and embeds that API's documentation on its
    first lookup, caches the tuple and returns it; later lookups return the
    cached tuple. A name the document does not document gives ``()`` and
    stores nothing. Threads (``run_benchmark(jobs=...)``) may race to fill
    the same entry. The chunks are a deterministic function of the API,
    the model and the threshold, so each racer computes the same value, and
    ``dict.setdefault`` keeps the first one stored: every caller gets that
    same tuple.
    """

    def __init__(self, doc: ApiDocument, model: SimilarityModel, chunk_threshold: float):
        self._doc = doc
        self._model = model
        self._chunk_threshold = chunk_threshold
        self._chunks: dict[str, tuple[Chunk, ...]] = {}

    def for_api(self, api_name: str) -> tuple[Chunk, ...]:
        chunks = self._chunks.get(api_name)
        if chunks is not None:
            return chunks
        api = self._doc.by_name.get(api_name)
        if api is None:
            return ()
        chunks = _chunk_api(api, self._model, self._chunk_threshold)
        return self._chunks.setdefault(api_name, chunks)


def _chunk_api(
    api: ApiSpec, model: SimilarityModel, chunk_threshold: float
) -> tuple[Chunk, ...]:
    """Sentence-split one API's documentation and chunk greedily.

    A sentence joins the current chunk while its similarity to the chunk's
    joined text stays at or above *chunk_threshold*; otherwise it starts a
    new chunk. Every sentence lands in exactly one chunk of its API.
    """
    groups: list[list[str]] = []
    for sentence in split_sentences(api_documentation_text(api)):
        if groups and model.score(sentence, " ".join(groups[-1])) >= chunk_threshold:
            groups[-1].append(sentence)
        else:
            groups.append([sentence])
    chunks = []
    for group in groups:
        text = " ".join(group)
        chunks.append(Chunk(api.name, tuple(group), text, model.embed(text)))
    return tuple(chunks)


# The similarity at which a sentence joins the chunk before it.
CHUNK_THRESHOLD = 0.3


def build_chunk_index(
    doc: ApiDocument, model: SimilarityModel, chunk_threshold: float
) -> ChunkIndex:
    """The chunk index of *doc*, which chunks each API on its first lookup
    (see :class:`ChunkIndex`); the pipeline passes ``CHUNK_THRESHOLD``.

    Chunking is deferred, but one probe ``model.embed`` call on the doc's
    first sentence makes an embedder that cannot answer fail here, before
    any task runs. A doc without any sentence (an empty doc among them)
    makes no call.
    """
    if not 0.0 < chunk_threshold < 1.0:
        raise ValueError("chunk_threshold must be in (0, 1)")
    probe = next(
        (s for api in doc.apis for s in split_sentences(api_documentation_text(api))),
        None,
    )
    if probe is not None:
        model.embed(probe)
    return ChunkIndex(doc, model, chunk_threshold)


@dataclass(frozen=True, eq=False)
class PreparedDoc:
    """Everything derived from one document and its similarity model, built
    once by ``orchestrator.prepare_document`` and shared by every task on
    the document: the chunk index for error retrieval (filled per API on
    its first lookup, see :class:`ChunkIndex`), the relevance ranker
    over the API descriptions (``rank(query)`` gives one score per API, in
    doc order), the ranker over the API names that the name cascade
    matches a wrong name against (``rank_names``, also in doc order), and
    the system message holding the rendered doc."""

    doc: ApiDocument
    model: SimilarityModel
    index: ChunkIndex
    rank: Callable[[str], list[float]]
    rank_names: Callable[[str], list[float]]
    system: ChatMessage


@dataclass(frozen=True)
class RetrievedMessage:
    """The documentation text retrieved for a failing API response."""

    text: str
    source_api: str
    similarity: float

    def __post_init__(self):
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError("similarity must be in [0, 1]")


def retrieve_error_message(
    api_name: str, query: str, index: ChunkIndex, model: SimilarityModel
) -> RetrievedMessage | None:
    """Nearest chunk of *api_name* to the query embedding, or ``None`` when
    the API has no chunks. Exhaustive search; ties keep chunk order."""
    chunks = index.for_api(api_name)
    if not chunks:
        return None
    query_vec = model.embed(query)
    best = chunks[0]
    best_sim = float(np.dot(query_vec, chunks[0].vector))
    for chunk in chunks[1:]:
        sim = float(np.dot(query_vec, chunk.vector))
        if sim > best_sim:
            best, best_sim = chunk, sim
    return RetrievedMessage(best.text, api_name, min(1.0, max(0.0, best_sim)))
