import dataclasses
import functools
import json
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autofeedback import (
    build_chunk_index,
    default_similarity,
    load_document,
    prepare_document,
    retrieve_error_message,
    retrieve_relevant_apis,
)
from autofeedback import retrieval
from autofeedback.errors import EmptyDocumentError, ProtocolError, TransportError
from autofeedback.retrieval import (
    ARRAY_RANKING_MIN_TEXTS,
    RemoteEmbeddingSimilarity,
    RetrievedMessage,
    SimilarityModel,
    TfidfSimilarity,
    api_documentation_text,
    split_sentences,
    tokenize,
)

from oracles import (
    oracle_corpus_from_raw,
    oracle_eager_chunk_index,
    oracle_tfidf_score,
    oracle_tokens,
)

FROZEN_CORPUS = [
    "List remaining medicines in the cabinet and their stock.",
    "Plan a driving route between two map positions.",
    "Log a user into the system and start a session.",
]
# Computed once with the brute-force oracle over FROZEN_CORPUS.
FROZEN_ASPIRIN_SCORE = 0.40754939887039815


def test_score_identical_text():
    model = TfidfSimilarity(FROZEN_CORPUS)
    assert model.score("get weather", "get weather") == 1.0


def test_score_disjoint_vocabulary():
    model = TfidfSimilarity(FROZEN_CORPUS)
    assert model.score("abc", "xyz") == 0.0


def test_score_matches_frozen_oracle_value():
    model = TfidfSimilarity(FROZEN_CORPUS)
    got = model.score("find aspirin number", "list medicines aspirin")
    assert 0.0 < got < 1.0
    assert got == pytest.approx(FROZEN_ASPIRIN_SCORE, abs=1e-12)
    # The independent oracle still agrees with its frozen output.
    assert oracle_tfidf_score(
        "find aspirin number", "list medicines aspirin", FROZEN_CORPUS
    ) == pytest.approx(FROZEN_ASPIRIN_SCORE, abs=1e-12)


def test_score_symmetric_and_reorder_invariant(model):
    pairs = [
        ("plan a driving route", "driving route plan"),
        ("list medicines", "medicines list today"),
        ("weather in kyoto", "kyoto weather report"),
    ]
    for a, b in pairs:
        assert model.score(a, b) == pytest.approx(model.score(b, a), abs=1e-9)
    assert model.score("plan a driving route", "route driving a plan") == 1.0


def test_impl_score_agrees_with_oracle_on_fixture(doc, model, raw_doc):
    corpus = oracle_corpus_from_raw(raw_doc)
    rng = random.Random(7)
    words = ["route", "driving", "weather", "city", "alarm", "currency", "stock"]
    for _ in range(25):
        a = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        assert model.score(a, b) == pytest.approx(
            oracle_tfidf_score(a, b, corpus), abs=1e-9
        )


def test_embed_fixed_length_and_normalized(model):
    v1 = model.embed("plan a driving route")
    v2 = model.embed("weather")
    assert v1.shape == v2.shape
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)


def test_retrieve_top1_self_description(doc, model):
    api = doc.apis[3]
    result = retrieve_relevant_apis(api.description, prepare_document(doc, model), 1)
    assert result.names == (api.name,)
    assert result.entries[0][1] == 1.0


def test_retrieve_k_capped_by_doc_size(model):
    small = load_document(
        json.dumps(
            {
                "apis": [
                    {"name": n, "description": d, "parameters": [], "exceptions": []}
                    for n, d in [
                        ("a", "first thing"),
                        ("b", "second thing"),
                        ("c", "third thing"),
                    ]
                ]
            }
        )
    )
    result = retrieve_relevant_apis(
        "thing", prepare_document(small, default_similarity(small)), 5
    )
    assert len(result) == 3
    scores = [s for _, s in result.entries]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_tie_breaks_by_doc_order():
    twins = load_document(
        json.dumps(
            {
                "apis": [
                    {"name": "later_twin", "description": "identical words here",
                     "parameters": [], "exceptions": []},
                    {"name": "early_twin", "description": "identical words here",
                     "parameters": [], "exceptions": []},
                ]
            }
        )
    )
    model = default_similarity(twins)
    result = retrieve_relevant_apis(
        "identical words here", prepare_document(twins, model), 1
    )
    assert result.names == ("later_twin",)


# Scores drawn mostly from a few values, so that lists are full of ties.
_TIED_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(allow_nan=False),
    min_size=1,
    max_size=40,
)


@functools.lru_cache(maxsize=None)
def _prepared_of_size(n):
    doc = _doc_of((f"api_{i}", "stock") for i in range(n))
    return prepare_document(doc, default_similarity(doc))


@settings(max_examples=300, deadline=None)
@example([0.0])
@example([0.0] * 360)
@example([0.5, 1.0, 0.5, 1.0, 0.0])
@given(_TIED_SCORES)
def test_top_k_keeps_the_highest_scores_first_and_ties_in_doc_order(scores):
    n = len(scores)
    prepared = dataclasses.replace(_prepared_of_size(n), rank=lambda _query: scores)
    # A stable sort on the negated score: the order heapq.nlargest documents.
    ranked = sorted(range(n), key=lambda i: -scores[i])
    for k in range(1, n + 1):
        got = retrieve_relevant_apis("any", prepared, k)
        assert got.entries == tuple((f"api_{i}", scores[i]) for i in ranked[:k])


# Every code point, lone surrogates (category Cs) included; st.text()
# leaves those out, and they are rare among all code points, so they are
# also drawn on their own.
_ANY_CHAR = st.one_of(
    st.characters(exclude_categories=()), st.characters(categories=["Cs"])
)


@settings(max_examples=500, deadline=None)
@given(st.text(_ANY_CHAR))
@example("\u0130stanbul \u212aelvin \ufb01le Stra\u00dfe \u017fo x2_Y3")
@example("ab\ud800cd \udfff9 \ud83d\ude00x")
@example("a\x00b\x00\x7f\x80c")
@example("a\U0001f600b \U00010400x \U0001d41a9")
def test_tokenize_equals_split_and_filter(text):
    # lower() may turn one character into several ("\u0130" into "i" and
    # a combining dot) or into ASCII (the Kelvin sign into "k"), and keeps
    # others that match [a-z] only under re.IGNORECASE (the long s). The
    # ascii encoding turns each lone surrogate and each character outside
    # the BMP ("\U00010400" lowers to "\U00010428") into one separator.
    assert tokenize(text) == oracle_tokens(text)


_CORPUS_TEXT = st.one_of(
    st.lists(
        st.sampled_from(("route", "Plan", "a", "2", "x1", "DRIVE", "caf\u00e9")), max_size=6
    ).map(" ".join),
    st.text(_ANY_CHAR, max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CORPUS_TEXT, max_size=8), _CORPUS_TEXT, _CORPUS_TEXT)
def test_fit_score_equals_oracle_exactly(corpus, a, b):
    # Exact, not approximate: the counted document frequencies and the idf
    # float shared by every token of one count give the oracle's floats.
    assert TfidfSimilarity(corpus).score(a, b) == oracle_tfidf_score(a, b, corpus)


_WORDS = ("route", "plan", "driving", "Weather", "city", "alarm", "stock", "a", "2")
_UNSEEN = ("zzq", "xylo", "qq7")


def _doc_of(pairs):
    """A document of one parameterless API per (name, description) pair."""
    return load_document(
        json.dumps(
            {
                "apis": [
                    {"name": n, "description": d, "parameters": [], "exceptions": []}
                    for n, d in pairs
                ]
            }
        )
    )


@st.composite
def _doc_and_queries(draw):
    words = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
    # Sizes on both sides of the ranker's choice between dicts and arrays.
    size = draw(
        st.integers(1, 8)
        | st.integers(ARRAY_RANKING_MIN_TEXTS, ARRAY_RANKING_MIN_TEXTS + 8)
    )
    descriptions = draw(st.lists(words, min_size=size, max_size=size))
    # Names may repeat another name's tokens in another order or count
    # ("a_plan", "plan_a", "a_plan_a"), or hold none ("?!").
    name = st.lists(st.sampled_from(_WORDS + ("?!",)), min_size=1, max_size=4).map(
        "_".join
    )
    names = draw(
        st.lists(name, min_size=len(descriptions), max_size=len(descriptions), unique=True)
    )
    doc = _doc_of(zip(names, descriptions))
    query = st.one_of(
        st.lists(st.sampled_from(_WORDS + _UNSEEN), max_size=8).map(" ".join),
        st.sampled_from(descriptions + names),
        st.sampled_from(descriptions).flatmap(
            lambda d: st.permutations(d.split()).map(" ".join)
        ),
        st.sampled_from(names).flatmap(
            lambda n: st.permutations(n.split("_")).map(" ".join)
        ),
        st.sampled_from(["", "?!", "zzq xylo"]),
    )
    return doc, draw(st.lists(query, min_size=1, max_size=6))


# Fitted, "city plan" and the first description have proportional, unequal
# weights whose cosine rounds to 1.0000000000000002.
_PROPORTIONAL = _doc_of(
    [("plan_city", "plan city plan city"), ("city_plan", "a"), ("alarm", "stock")]
)


# The same three APIs padded with 77 others to 80, a size at which the
# fitted idf still rounds that cosine up to 1.0000000000000002.
_PROPORTIONAL_PADDED = _doc_of(
    [(a.name, a.description) for a in _PROPORTIONAL.apis]
    + [(f"pad_{i}", "stock") for i in range(77)]
)


def _large_doc(n: int):
    """*n* APIs: an empty description first (norm 0.0), then two equal
    ones, then seeded word lists, which repeat one another now and then."""
    rng = random.Random(n)
    descriptions = ["", "plan driving route", "plan driving route"] + [
        " ".join(rng.choices(_WORDS, k=rng.randint(1, 4))) for _ in range(n - 3)
    ]
    return _doc_of((f"api_{i}", d) for i, d in enumerate(descriptions))


_LARGE = _large_doc(ARRAY_RANKING_MIN_TEXTS)
_LARGE_QUERIES = [
    "route plan city",  # shares tokens with many texts, none with the empty one
    "route driving plan",  # equal weights to the two equal descriptions
    "zzq xylo",  # unseen tokens only
    "",
]


@settings(max_examples=150, deadline=None)
@given(_doc_and_queries(), st.booleans())
@example((_PROPORTIONAL, ["city plan"]), True)
@example((_PROPORTIONAL_PADDED, ["city plan"]), True)
@example((_LARGE, _LARGE_QUERIES[:1]), True)
@example((_LARGE, _LARGE_QUERIES[1:2]), True)
@example((_LARGE, _LARGE_QUERIES[2:3]), False)
@example((_LARGE, _LARGE_QUERIES), True)
def test_prepared_ranking_equals_scoring_every_api(case, fitted):
    # Both inverted-index rankers, over dicts and over arrays, must give
    # score()'s floats exactly, as Python floats, and the relevant set the
    # same order, ties in doc order.
    doc, queries = case
    model = default_similarity(doc) if fitted else TfidfSimilarity(())
    prepared = prepare_document(doc, model)
    for query in queries:
        scores = [model.score(query, a.description) for a in doc.apis]
        ranked = prepared.rank(query)
        assert ranked == scores
        ranked_names = prepared.rank_names(query)
        assert ranked_names == [model.score(query, name) for name in doc.api_names]
        assert all(type(s) is float for s in ranked + ranked_names)
        expected = sorted(zip(doc.api_names, scores), key=lambda pair: -pair[1])
        for k in (1, len(doc.apis)):
            got = retrieve_relevant_apis(query, prepared, k)
            assert got.entries == tuple(expected[:k])


@pytest.mark.parametrize("n", [ARRAY_RANKING_MIN_TEXTS - 1, ARRAY_RANKING_MIN_TEXTS])
def test_both_ranking_paths_agree_at_the_size_boundary(n, monkeypatch):
    doc = _large_doc(n)
    model = default_similarity(doc)
    prepared = prepare_document(doc, model)
    texts = [a.description for a in doc.apis]
    chosen = "_array_ranker" if n >= ARRAY_RANKING_MIN_TEXTS else "ranker"
    assert model.ranker(texts).__qualname__ == f"TfidfSimilarity.{chosen}.<locals>.rank"
    # The padded cap example must stay on the array path.
    assert len(_PROPORTIONAL_PADDED.apis) >= ARRAY_RANKING_MIN_TEXTS
    monkeypatch.setattr(retrieval, "ARRAY_RANKING_MIN_TEXTS", n + 1)
    by_dict = dataclasses.replace(prepared, rank=model.ranker(texts))
    monkeypatch.setattr(retrieval, "ARRAY_RANKING_MIN_TEXTS", n)
    by_array = dataclasses.replace(prepared, rank=model.ranker(texts))
    queries = _LARGE_QUERIES + texts[3:12] + [f"please {t} now" for t in texts[12:20]]
    for query in queries:
        assert by_dict.rank(query) == by_array.rank(query)
        for k in (1, n):
            assert (
                retrieve_relevant_apis(query, by_dict, k).entries
                == retrieve_relevant_apis(query, by_array, k).entries
            )


def test_out_of_range_arguments_raise(doc, model, prepared):
    with pytest.raises(ValueError, match="k must be >= 1"):
        retrieve_relevant_apis("anything", prepared, 0)
    with pytest.raises(ValueError, match="chunk_threshold"):
        build_chunk_index(doc, model, 1.0)
    with pytest.raises(ValueError, match="similarity"):
        RetrievedMessage("x", 1.5)


def test_retrieve_empty_document_raises(model):
    empty = load_document(json.dumps({"apis": []}))
    with pytest.raises(EmptyDocumentError):
        retrieve_relevant_apis("anything", prepare_document(empty, model), 1)


def test_single_sentence_api_single_chunk():
    doc = load_document(
        json.dumps(
            {
                "apis": [
                    {"name": "one", "description": "Only one sentence here.",
                     "parameters": [], "exceptions": []}
                ]
            }
        )
    )
    index = build_chunk_index(doc, default_similarity(doc), 0.3)
    chunks = index.for_api("one")
    assert len(chunks) == 1
    assert chunks[0].sentences == ("Only one sentence here.",)


def test_disjoint_sentences_split_into_chunks():
    doc = load_document(
        json.dumps(
            {
                "apis": [
                    {
                        "name": "two",
                        "description": "Aardvark bamboo cedar. Xylophone yodel zeppelin.",
                        "parameters": [],
                        "exceptions": [],
                    }
                ]
            }
        )
    )
    index = build_chunk_index(doc, default_similarity(doc), 0.3)
    assert len(index.for_api("two")) == 2


def test_chunk_coverage_is_exact(doc, model, chunk_index):
    for api in doc.apis:
        expected = sorted(split_sentences(api_documentation_text(api)))
        got = sorted(
            s for chunk in chunk_index.for_api(api.name) for s in chunk.sentences
        )
        assert got == expected


def test_error_code_sentence_lands_in_a_chunk(chunk_index):
    texts = [c.text for c in chunk_index.for_api("route_planning")]
    assert any("Longitude precedes latitude" in t for t in texts)


def test_retrieve_error_message_for_info_code(doc, model, chunk_index):
    query = 'route_planning(origin="116.4,39.9", dest="121.5,31.2")\ninfo_code:20000'
    message = retrieve_error_message("route_planning", query, chunk_index, model)
    assert message is not None
    assert "Longitude precedes latitude" in message.text
    assert 0.0 <= message.similarity <= 1.0


def test_retrieve_unknown_api_returns_none(chunk_index, model):
    assert retrieve_error_message("ghost", "query", chunk_index, model) is None


def test_retrieve_single_chunk_api_returns_it(doc, model):
    index = build_chunk_index(doc, model, 0.3)
    # userLogout renders to two sentences that share words, hence one chunk.
    chunks = index.for_api("userLogout")
    if len(chunks) == 1:
        got = retrieve_error_message("userLogout", "zzz unrelated", index, model)
        assert got is not None and got.text == chunks[0].text


def _renamed_copies(raw_doc, copies):
    """Raw JSON of a doc of *copies* renamed copies of every API of *raw_doc*."""
    return {
        "apis": [
            dict(api, name=f"{api['name']}_{i}")
            for i in range(copies)
            for api in raw_doc["apis"]
        ]
    }


@pytest.mark.parametrize("copies", [1, 30], ids=["fixture", "360-apis"])
def test_lazy_chunks_equal_eager_chunks(raw_doc, copies):
    raw = _renamed_copies(raw_doc, copies)
    doc = load_document(json.dumps(raw))
    model = default_similarity(doc)
    eager = oracle_eager_chunk_index(raw, model, 0.3)
    index = build_chunk_index(doc, model, 0.3)
    assert len(eager) == len(doc.apis)
    for api in doc.apis:
        got, want = index.for_api(api.name), eager[api.name]
        assert [(c.sentences, c.text) for c in got] == [
            (sentences, text) for _, sentences, text, _ in want
        ]
        assert all(np.array_equal(g.vector, w[3]) for g, w in zip(got, want))
        assert index.for_api(api.name) is got  # cached


def test_unknown_api_lookup_stores_nothing(doc, model):
    index = build_chunk_index(doc, model, 0.3)
    assert index.for_api("ghost") == ()
    assert index._chunks == {}


class _SlowModel(SimilarityModel):
    """TF-IDF behind an ``embed`` that sleeps, so racing threads overlap."""

    def __init__(self, inner):
        self._inner = inner

    def embed(self, text):
        time.sleep(0.001)
        return self._inner.embed(text)

    def score(self, text_a, text_b):
        return self._inner.score(text_a, text_b)


def test_racing_first_lookups_get_one_tuple(doc, model):
    index = build_chunk_index(doc, _SlowModel(model), 0.3)
    barrier = threading.Barrier(8, timeout=10)
    got = [None] * 8

    def look(i):
        barrier.wait()
        got[i] = index.for_api("route_planning")

    threads = [threading.Thread(target=look, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got[0]
    assert all(chunks is got[0] for chunks in got)
    assert index.for_api("route_planning") is got[0]


def _embedding_body(vector):
    return json.dumps({"data": [{"embedding": vector}]})


def test_remote_embedder_normalizes_and_caches(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, _embedding_body([3.0, 4.0])))
    model = RemoteEmbeddingSimilarity(base_url, "embed-1")
    vec = model.embed("hello")
    assert vec == pytest.approx([0.6, 0.8])
    assert model.embed("hello") is vec  # served from cache
    assert len(handler.requests_seen) == 1
    sent = json.loads(handler.requests_seen[0][2])
    assert sent == {"input": ["hello"], "model": "embed-1"}
    assert handler.requests_seen[0][1] == "/embeddings"


def test_remote_embedder_cache_keeps_the_most_recently_used(stub_server, monkeypatch):
    monkeypatch.setattr(retrieval, "EMBED_CACHE_SIZE", 2)
    base_url, handler = stub_server
    handler.default_behavior = (200, _embedding_body([1.0, 0.0]))
    model = RemoteEmbeddingSimilarity(base_url, "m")
    for text in ["a", "b", "a", "c", "a", "b"]:
        model.embed(text)
    # "a" was used after "b", so "c" evicts "b" and "a" stays cached.
    sent = [json.loads(body)["input"][0] for _, _, body in handler.requests_seen]
    assert sent == ["a", "b", "c", "b"]


def _letter_band_embedding(path, body):
    """Stub embedder: counts of a text's letters in four alphabet bands."""
    text = json.loads(body)["input"][0]
    vector = [1.0, 0.0, 0.0, 0.0]
    for c in text:
        if "a" <= c <= "z":
            vector[(ord(c) - ord("a")) * 4 // 26] += 1.0
    return 200, _embedding_body(vector)


def test_remote_ranker_keeps_its_vectors_out_of_the_cache(stub_server, monkeypatch):
    monkeypatch.setattr(retrieval, "EMBED_CACHE_SIZE", 2)
    base_url, handler = stub_server
    handler.default_behavior = _letter_band_embedding
    model = RemoteEmbeddingSimilarity(base_url, "m")
    texts = ["alpha beta", "gamma", "zeta", "gamma"]
    rank = model.ranker(texts)
    assert handler.requests_seen == []
    queries = ["find alpha", "route", "stay", "quiz", "find alpha"]
    got = [rank(query) for query in queries]
    sent = [json.loads(body)["input"][0] for _, _, body in handler.requests_seen]
    # Each text is embedded once, on the first query; the queries alone
    # then cycle through the two cache slots.
    assert sent == ["alpha beta", "gamma", "zeta"] + queries
    assert got == [[model.score(query, text) for text in texts] for query in queries]


def test_remote_ranker_racing_first_queries_embed_its_texts_once(stub_server):
    base_url, handler = stub_server
    handler.default_behavior = _letter_band_embedding
    model = RemoteEmbeddingSimilarity(base_url, "m")
    texts = ["alpha beta", "gamma", "zeta"]
    rank = model.ranker(texts)
    barrier = threading.Barrier(8, timeout=10)
    got = [None] * 8

    def query(i):
        barrier.wait()
        got[i] = rank(f"query {i}")

    threads = [threading.Thread(target=query, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    sent = [json.loads(body)["input"][0] for _, _, body in handler.requests_seen]
    assert sorted(sent) == sorted(texts + [f"query {i}" for i in range(8)])
    assert got == [[model.score(f"query {i}", text) for text in texts] for i in range(8)]


def test_remote_embedder_score_is_cosine(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, _embedding_body([1.0, 0.0])))
    handler.behaviors.append((200, _embedding_body([1.0, 1.0])))
    model = RemoteEmbeddingSimilarity(base_url, "m")
    assert model.score("a", "b") == pytest.approx(1 / 2**0.5)


def test_remote_embedder_dimension_change_is_protocol_error(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, _embedding_body([1.0, 0.0])))
    handler.behaviors.append((200, _embedding_body([1.0, 0.0, 0.0])))
    model = RemoteEmbeddingSimilarity(base_url, "m")
    model.embed("a")
    with pytest.raises(ProtocolError):
        model.embed("b")


@pytest.mark.parametrize(
    "embedding", [1.5, [[1.0, 2.0]], [], [True, 1.0], ["1.0"]],
    ids=["scalar", "nested", "empty", "bool", "string"],
)
def test_remote_embedder_rejects_a_non_vector(stub_server, embedding):
    base_url, handler = stub_server
    handler.behaviors.append((200, _embedding_body(embedding)))
    with pytest.raises(ProtocolError):
        RemoteEmbeddingSimilarity(base_url, "m").embed("a")


def test_remote_embedder_body_that_is_not_json_is_protocol_error(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, "not json"))
    with pytest.raises(ProtocolError, match="malformed embedding response"):
        RemoteEmbeddingSimilarity(base_url, "m").embed("a")


def test_remote_embedder_transport_error_after_retries(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(500, "{}")] * 3)
    model = RemoteEmbeddingSimilarity(base_url, "m")
    with pytest.raises(TransportError):
        model.embed("a")
    assert len(handler.requests_seen) == 3


def test_retrieve_matches_bruteforce_argmax(doc, model, chunk_index):
    rng = random.Random(99)
    vocab = [
        "route", "longitude", "latitude", "error", "20000", "medicine", "alarm",
        "city", "weather", "currency", "stock", "meeting", "unknownword",
    ]
    api_names = [a.name for a in doc.apis]
    for _ in range(100):
        api_name = rng.choice(api_names)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        got = retrieve_error_message(api_name, query, chunk_index, model)
        chunks = chunk_index.for_api(api_name)
        query_vec = model.embed(query)
        sims = [float(np.dot(query_vec, c.vector)) for c in chunks]
        best = chunks[sims.index(max(sims))]
        assert got is not None and got.text == best.text


def test_remote_embedder_retries_a_rate_limit(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(429, "{}"), (200, _embedding_body([0.0, 2.0]))])
    model = RemoteEmbeddingSimilarity(base_url, "m")
    assert model.embed("a") == pytest.approx([0.0, 1.0])
    assert len(handler.requests_seen) == 2


def test_remote_embedder_client_error_status_is_protocol_error(stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (401, '{"error": "bad key"}')
    with pytest.raises(ProtocolError, match="status 401"):
        RemoteEmbeddingSimilarity(base_url, "m").embed("a")
    assert len(handler.requests_seen) == 1


def test_remote_embedder_recovers_after_one_server_error(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(500, "{}"), (200, _embedding_body([0.0, 2.0]))])
    model = RemoteEmbeddingSimilarity(base_url, "m")
    assert model.embed("a") == pytest.approx([0.0, 1.0])
    assert len(handler.requests_seen) == 2
