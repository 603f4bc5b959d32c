"""Independent TF-IDF oracle used to pre-verify semantic-class injections.

It shares no code with ``autofeedback.retrieval``: the corpus is rebuilt
from the raw document JSON, and the weighting follows the documented
formula (tf = raw count, idf = ln((1+n)/(1+df)) + 1, cosine over the token
union of the two texts, equal token multisets score exactly 1).
"""

from __future__ import annotations

import math
import re
from collections import Counter

_SPLIT = re.compile(r"[^a-z0-9]+")


def tokens(text: str) -> list[str]:
    return [t for t in _SPLIT.split(text.lower()) if t]


def corpus_entry(api: dict) -> str:
    """Name plus every description and exception text of one raw API."""
    parts = [api["name"], api.get("description", "")]
    parts += [p.get("description", "") for p in api.get("parameters", [])]
    parts += [f"Error {e['code']}: {e['message']}" for e in api.get("exceptions", [])]
    return "\n".join(part for part in parts if part)


class TfidfOracle:
    """Brute-force TF-IDF cosine fitted on one raw document."""

    def __init__(self, raw_doc: dict):
        entries = [set(tokens(corpus_entry(api))) for api in raw_doc["apis"]]
        self._n = len(entries)
        self._df = Counter(t for entry in entries for t in entry)
        self._cache: dict[str, tuple[dict[str, float], float]] = {}

    def _idf(self, token: str) -> float:
        return math.log((1 + self._n) / (1 + self._df.get(token, 0))) + 1.0

    def _weights(self, text: str) -> tuple[dict[str, float], float]:
        """Token weights of *text* and their Euclidean norm, memoized."""
        if text not in self._cache:
            weights = {t: c * self._idf(t) for t, c in Counter(tokens(text)).items()}
            self._cache[text] = weights, math.sqrt(sum(w * w for w in weights.values()))
        return self._cache[text]

    def score(self, a: str, b: str) -> float:
        (wa, na), (wb, nb) = self._weights(a), self._weights(b)
        if wa == wb:
            return 1.0 if wa else 0.0
        if na == 0.0 or nb == 0.0:
            return 0.0
        dot = sum(w * wb.get(t, 0.0) for t, w in wa.items())
        return max(0.0, min(1.0, dot / (na * nb)))
