"""Time relevant-API ranking on both of ``TfidfSimilarity.ranker``'s paths.

    python3 tools/rank_crossover.py [--seed 1] [--repeats 5]

For each document size it generates a document with ``perfbench/``'s
generator (``inputs.large_doc``: copies of the 12 base APIs, each with fresh
words), fits its TF-IDF model, and ranks instructions phrased as the
benchmark phrases them against the API descriptions, once through the dict
postings and once through the numpy arrays. Each path is forced by setting
``retrieval.ARRAY_RANKING_MIN_TEXTS`` for the build. Prints the microseconds
per query of each path (the best of ``--repeats`` passes over the queries,
CPU time, the paths taking turns) and dict over array;
``ARRAY_RANKING_MIN_TEXTS`` is set near where that ratio crosses 1. The
inputs come from the generators in ``perfbench/``, which this script only
imports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
SIZES = (12, 24, 48, 64, 72, 80, 96, 120, 240, 360)
QUERIES = 300  # instructions timed per document size


def _time_per_query(rankers, queries, repeats: int) -> list[float]:
    """Best CPU microseconds per query of each ranker; the rankers take
    turns, so that a change in the machine's speed reaches all of them."""
    best = [float("inf")] * len(rankers)
    for _ in range(repeats):
        for i, rank in enumerate(rankers):
            start = process_time()
            for query in queries:
                rank(query)
            best[i] = min(best[i], process_time() - start)
    return [1e6 * b / len(queries) for b in best]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs
    from autofeedback import retrieval
    from autofeedback.doc_model import load_document

    print(f"ARRAY_RANKING_MIN_TEXTS = {retrieval.ARRAY_RANKING_MIN_TEXTS}")
    print(f"{'apis':>5} {'dict_us':>9} {'array_us':>9} {'dict/array':>10}")
    for n in SIZES:
        generated = inputs.large_doc(args.seed, n)
        doc = load_document(json.dumps(generated.raw))
        model = retrieval.default_similarity(doc)
        texts = [api.description for api in doc.apis]
        rng = random.Random(args.seed)
        queries = [
            f"{rng.choice(inputs.LEADS)} {d[0].lower()}{d[1:]}"
            for d in rng.choices(texts, k=QUERIES)
        ]
        retrieval.ARRAY_RANKING_MIN_TEXTS = n + 1
        by_dict = model.ranker(texts)
        retrieval.ARRAY_RANKING_MIN_TEXTS = n
        by_array = model.ranker(texts)
        if any(by_dict(q) != by_array(q) for q in queries):
            print(f"error: the two paths disagree at {n} APIs", file=sys.stderr)
            return 1
        dict_us, array_us = _time_per_query((by_dict, by_array), queries, args.repeats)
        print(f"{n:>5} {dict_us:>9.1f} {array_us:>9.1f} {dict_us / array_us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
