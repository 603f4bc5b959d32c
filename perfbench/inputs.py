"""Seeded inputs: scaled documents, scripted sessions and a labelled corpus.

Everything is built from the benchmark's own copy of the 12-API fixture
document (``base_doc.json``) and a seed. Nothing here calls into
``autofeedback``: the expectation attached to every input (its verdict, its
error classes, its call counts, the documented message its dynamic step must
retrieve) follows from how the input was built, and the two semantic classes
are pre-verified with the independent TF-IDF oracle.
"""

from __future__ import annotations

import copy
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from oracle import TfidfOracle, corpus_entry, tokens

BASE_DOC = json.loads(Path(__file__).with_name("base_doc.json").read_text("utf-8"))

THRESHOLD = 0.5  # detection threshold the runs use (the pipeline default)
MAX_STATIC = 3
MAX_DYNAMIC = 2

# Static-fix sessions inject exactly one of these before the correct reply.
STATIC_FIX_CLASSES = (
    "E2.1", "E2.2", "E2.3", "E2.other",
    "E3.1", "E3.2", "E3.3", "E3.other", "E4.1",
)
# Budget-exhausted sessions cycle through these, one per attempt.
EXHAUSTED_CLASSES = ("E1", "E2.1", "E3.1", "E4.1", "E2.2", "E3.other")
# The classify corpus: all 11 error classes plus clean.
CLASSIFY_LABELS = (
    "E1", "E2.1", "E2.2", "E2.3", "E2.other", "E3.1", "E3.2", "E3.3",
    "E3.other", "E4.1", "E4.other", "none",
)

# The mock executor's semantic rules, keyed by base API: a request that
# breaks the rule gets a 200 whose body names the documented error code.
USERS = ("kate", "omar", "lin", "ravi", "sara", "jon")
ERROR_CODE = {"route_planning": "20000", "userLogin": "401"}

_WORDS = ("alpha", "kyoto", "oslo", "lima", "delta", "nova", "amber", "cedar")
_NON_LETTER = re.compile(r"[^a-zA-Z]")

LEADS = ("Please", "Could you", "I need to", "Help me", "I want to")
PROSE_OPEN = (
    "Sure, I can help with that. I read the documentation above and picked"
    " the single call that matches what you asked for, filling in each"
    " parameter from the details in your message.",
    "Understood. Only one documented API covers this task, so I used it and"
    " took the argument values straight from your instruction without"
    " guessing any of them.",
    "Happy to help with this one. After checking the parameter list and the"
    " types it documents, here is the request I would send for you.",
)
THOUGHTS = (
    "the instruction maps to one documented API and every required value is known",
    "the parameter names and value types follow the documentation exactly",
    "this call covers the whole task, so no second request is needed",
)
PROSE_CLOSE = (
    "Let me know if any value should change before it runs.",
    "Tell me if you would like different options for this request.",
    "I can adjust the arguments if the result is not what you expected.",
)
REACT_THOUGHTS = (
    "the retrieved error text says what was wrong, so I fixed that value",
    "the documentation explains the error code, so I corrected the argument",
)


def normalize(name: str) -> str:
    """The documented naming-style collapse: letters only, lowercased."""
    return _NON_LETTER.sub("", name).lower()


def _is_snake(name: str) -> bool:
    return "_" in name or name == name.lower()


def _rename(name: str, code: str) -> str:
    return f"{name}_{code}" if _is_snake(name) else name + code.capitalize()


def codewords(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """*n* distinct pronounceable letter-only words absent from *taken*."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(syllables) for _ in range(3))
        if word not in taken and word not in seen:
            seen.add(word)
            words.append(word)
    return words


BASE_VOCAB = {t for api in BASE_DOC["apis"] for t in tokens(corpus_entry(api))}


def scaled_doc(n_apis: int, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """A document of *n_apis* APIs in seeded order: copies of the 12 base
    APIs, each renamed with one fresh word and given another fresh word as a
    distinct token in its description. (One word in both places would make
    every error-text query, which holds the API name, match the description
    chunk.) Returns the raw JSON object and the map from name to base name."""
    codes = codewords(rng, 2 * n_apis, BASE_VOCAB)
    apis, bases = [], {}
    base_apis = BASE_DOC["apis"]
    for i in range(n_apis):
        base = base_apis[i % len(base_apis)]
        api = copy.deepcopy(base)
        api["name"] = _rename(base["name"], codes[2 * i])
        api["description"] = base["description"][:-1] + f" {codes[2 * i + 1]}."
        apis.append(api)
        bases[api["name"]] = base["name"]
    rng.shuffle(apis)
    return {"apis": apis}, bases


# -- request values and text ---------------------------------------------------


def literal(value) -> str:
    """Canonical literal text; the value pools hold no quotes, escapes or
    one-element tuples."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(literal(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(literal(v) for v in value) + ")"
    return "{" + ", ".join(f'"{k}": {literal(v)}' for k, v in value.items()) + "}"


def call_text(name: str, args: list[tuple[str, object]]) -> str:
    return f"{name}(" + ", ".join(f"{k}={literal(v)}" for k, v in args) + ")"


def _coordinate(rng: random.Random) -> str:
    return f"{rng.uniform(-60, 60):.1f},{rng.uniform(91, 179):.1f}"


def _value(base: str, param: dict, rng: random.Random):
    """A value the documented type accepts and the mock executor's rule for
    *base* accepts too."""
    name, kind = param["name"], param["type"]
    if base == "route_planning":
        return _coordinate(rng)
    if name in ("username", "recipient"):
        return rng.choice(USERS)
    if kind == "string":
        return rng.choice(_WORDS)
    if kind == "int":
        return rng.randint(1, 99)
    if kind == "float":
        return round(rng.uniform(0.5, 100.0), 2)
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "list":
        return [rng.choice(_WORDS), rng.choice(_WORDS)]
    if kind == "tuple":
        return (rng.choice(_WORDS), rng.choice(_WORDS))
    return {"stars": rng.randint(1, 5)}


def _bad_value(kind: str, rng: random.Random):
    """A literal whose type can never satisfy *kind*."""
    choices = {
        "int": ["three", 2.5, True],
        "float": ["many", False],
        "string": [7, True],
        "bool": ["yes", 1],
        "list": ["monday", 3],
        "tuple": [["a", "b"], "all"],
        "dict": [["stars"], 4],
    }[kind]
    return rng.choice(choices)


def truth_args(base: str, api: dict, rng: random.Random) -> list[tuple[str, object]]:
    return [
        (p["name"], _value(base, p, rng))
        for p in api["parameters"]
        if p["required"] or rng.random() < 0.3
    ]


# -- documents with their oracle -----------------------------------------------


class Doc:
    """One generated document: raw JSON, base names and the oracle."""

    def __init__(self, raw: dict, bases: dict[str, str]):
        self.raw = raw
        self.apis = raw["apis"]
        self.bases = bases
        self.by_name = {a["name"]: a for a in self.apis}
        self.norm_names = {normalize(n) for n in self.by_name}
        self.param_names = {p["name"] for a in self.apis for p in a["parameters"]}
        self.oracle = TfidfOracle(raw)

    def other_params(self, api: dict) -> list[str]:
        return [p["name"] for a in self.apis if a is not api for p in a["parameters"]]

    def relevant_top(self, instruction: str) -> str:
        """The API the oracle ranks first for *instruction* (first on ties)."""
        best, best_score = None, -1.0
        for api in self.apis:
            score = self.oracle.score(instruction, api["description"])
            if score > best_score:
                best, best_score = api["name"], score
        return best


def _literal_variants(name: str) -> list[str]:
    """Same normalized form, different text."""
    parts = name.split("_")
    variants = [name.upper(), name.capitalize(), name.lower()]
    if len(parts) > 1:
        variants.append(parts[0] + "".join(p.capitalize() for p in parts[1:]))
    else:
        variants.append("".join("_" + c.lower() if c.isupper() else c for c in name))
    return [v for v in variants if v != name]


def _semantic_variants(name: str) -> list[str]:
    """Different normalized form, heavy token overlap with *name*."""
    parts = name.split("_")
    variants = ["_".join(reversed(parts))] if len(parts) > 1 else []
    for filler in ("the", "info", "my", "all"):
        variants.append("_".join([*parts, filler]))
        variants.append("_".join([parts[0], filler, *parts[1:]]))
    return variants


def _replace_key(args, old: str, new: str):
    return [(new if k == old else k, v) for k, v in args]


def inject(
    label: str, doc: Doc, api: dict, args, rng: random.Random, *, argmax: bool
) -> str | None:
    """Request text for *api* carrying exactly the fault *label*, or ``None``
    when *api* is not eligible. ``argmax`` asks semantic name variants to
    rank their source first among all names (the rule ``detect`` follows);
    ``classify_against_truth`` only compares against the truth name."""
    name = api["name"]
    if label == "none":
        return call_text(name, args)
    if label == "E1":
        good = call_text(name, args)
        return rng.choice([
            good[:-1],
            good.replace("=", ":", 1),
            "I cannot find an API that fits this task.",
            f"{name}(x=1, x=2)",
            good.replace("(", " ", 1),
        ])
    if label == "E2.1":
        other = rng.choice([a["name"] for a in doc.apis if a is not api])
        return call_text(other, args)
    if label == "E2.2":
        for v in _literal_variants(name):
            if v not in doc.by_name and normalize(v) == normalize(name):
                return call_text(v, args)
        return None
    if label == "E2.3":
        for v in _semantic_variants(name):
            if v in doc.by_name or normalize(v) in doc.norm_names:
                continue
            score = doc.oracle.score(v, name)
            if score <= THRESHOLD:
                continue
            if argmax and any(
                doc.oracle.score(v, a["name"]) >= score for a in doc.apis if a is not api
            ):
                continue
            return call_text(v, args)
        return None
    if label == "E2.other":
        for _ in range(20):
            v = "_".join(codewords(rng, 2, BASE_VOCAB))
            if v in doc.by_name or normalize(v) in doc.norm_names:
                continue
            if all(doc.oracle.score(v, a["name"]) <= THRESHOLD for a in doc.apis):
                return call_text(v, args)
        return None
    own = [p["name"] for p in api["parameters"]]
    present = [k for k, _ in args]
    others = doc.other_params(api)
    if label == "E3.1":
        foreign = sorted(set(others) - set(own))
        return call_text(name, _replace_key(args, rng.choice(present), rng.choice(foreign)))
    if label == "E3.2":
        twins = [k for k in present if k in others]
        rng.shuffle(twins)
        other_norms = {normalize(p) for p in others}
        for key in twins:
            for v in _literal_variants(key):
                if v not in doc.param_names and normalize(v) in other_norms:
                    return call_text(name, _replace_key(args, key, v))
        return None
    if label == "E3.3":
        other_norms = {normalize(p) for p in others}
        for key in present:
            for v in _semantic_variants(key):
                if v in doc.param_names or normalize(v) in other_norms:
                    continue
                score = doc.oracle.score(v, key)
                if score > THRESHOLD and all(
                    doc.oracle.score(v, p) < score for p in own if p != key
                ):
                    return call_text(name, _replace_key(args, key, v))
        return None
    if label == "E3.other":
        required = [p["name"] for p in api["parameters"] if p["required"]]
        dropped = rng.choice(required)
        return call_text(name, [(k, v) for k, v in args if k != dropped])
    kinds = {p["name"]: p["type"] for p in api["parameters"]}
    victim = rng.choice(present)
    if label == "E4.1":
        bad = _bad_value(kinds[victim], rng)
        return call_text(name, [(k, bad if k == victim else v) for k, v in args])
    if label == "E4.other":
        old = dict(args)[victim]
        param = next(p for p in api["parameters"] if p["name"] == victim)
        for _ in range(20):
            new = _value(doc.bases[name], param, rng)
            if new != old and type(new) is type(old):
                return call_text(name, [(k, new if k == victim else v) for k, v in args])
        return None
    raise ValueError(label)


# -- reply shapes --------------------------------------------------------------


def reply(text: str, shape: str, rng: random.Random) -> str:
    """Wrap request text the way a model might: ``plain`` marker block,
    ``verbose`` prose and a Thought line around the block, or ``bare``
    prose with the call inline and no markers (the fallback extractor)."""
    if shape == "plain":
        return f"<<API>>{text}<</API>>"
    head = f"{rng.choice(PROSE_OPEN)}\nThought: {rng.choice(THOUGHTS)}"
    tail = rng.choice(PROSE_CLOSE)
    if shape == "verbose":
        return f"{head}\n<<API>>{text}<</API>>\n{tail}"
    return f"{head}\nI will now call {text} and report back.\n{tail}"


def react_reply(text: str, shape: str, rng: random.Random) -> str:
    body = f"Thought: {rng.choice(REACT_THOUGHTS)}\n<<API>>{text}<</API>>"
    return body if shape == "plain" else f"{rng.choice(PROSE_OPEN)}\n{body}"


# -- sessions ------------------------------------------------------------------


@dataclass(frozen=True)
class Session:
    """One scripted session and the outcome its construction implies."""

    task_id: str
    doc: int
    instruction: str
    truth: str
    script: tuple[str, ...]
    path: str
    classes: tuple[str, ...]  # expected error type per static attempt
    dynamic_records: int
    executions: int
    satisfied: bool
    message: str | None  # documented text the dynamic step must retrieve

    @property
    def llm_calls(self) -> int:
        return len(self.classes) + self.dynamic_records


# One round: path shares put p50 inside the fix cluster and p95 in its top.
ROUND_PATHS = (
    ("exhausted",) * 2
    + ("clean",) * 4
    + tuple(f"static:{c}" for c in STATIC_FIX_CLASSES)
    + ("dynamic",) * 5
)


def _instruction(api: dict, doc: Doc, rng: random.Random) -> str:
    desc = api["description"]
    text = f"{rng.choice(LEADS)} {desc[0].lower()}{desc[1:]}"
    if doc.relevant_top(text) != api["name"]:
        raise AssertionError(f"instruction does not single out {api['name']}")
    return text


def _trap_args(base: str, args, rng: random.Random):
    """Arguments that break the mock executor's rule for *base*."""
    if base == "route_planning":
        key = rng.choice(["origin", "dest"])
        return [(k, ",".join(reversed(v.split(","))) if k == key else v) for k, v in args]
    return [(k, "mallory" if k == "username" else v) for k, v in args]


def make_session(
    task_id: str, doc_index: int, doc: Doc, path: str, shape: str, rng: random.Random
) -> Session:
    if path == "dynamic":
        pool = [a for a in doc.apis if doc.bases[a["name"]] in ERROR_CODE]
    else:
        pool = list(doc.apis)
    for _ in range(200):
        api = rng.choice(pool)
        base = doc.bases[api["name"]]
        args = truth_args(base, api, rng)
        truth = call_text(api["name"], args)
        if path == "clean":
            texts, classes = [truth], ("none",)
        elif path == "dynamic":
            texts, classes = [call_text(api["name"], _trap_args(base, args, rng))], ("none",)
        elif path == "exhausted":
            start = rng.randrange(len(EXHAUSTED_CLASSES))
            classes = tuple(
                EXHAUSTED_CLASSES[(start + i) % len(EXHAUSTED_CLASSES)]
                for i in range(MAX_STATIC + 1)
            )
            texts = [inject(c, doc, api, args, rng, argmax=True) for c in classes]
        else:
            label = path.split(":", 1)[1]
            texts = [inject(label, doc, api, args, rng, argmax=True), truth]
            classes = (label, "none")
        if all(t is not None for t in texts):
            break
    else:
        raise AssertionError(f"no eligible API for {path}")
    script = [reply(t, shape, rng) for t in texts]
    dynamic = 0
    message = None
    if path == "dynamic":
        script.append(react_reply(truth, shape, rng))
        dynamic = 1
        code = ERROR_CODE[base]
        message = next(e["message"] for e in api["exceptions"] if e["code"] == code)
    executions = 0 if path == "exhausted" else 1 + dynamic
    return Session(
        task_id=task_id,
        doc=doc_index,
        instruction=_instruction(api, doc, rng),
        truth=truth,
        script=tuple(script),
        path=path.split(":", 1)[0],
        classes=classes,
        dynamic_records=dynamic,
        executions=executions,
        satisfied=path != "exhausted",
        message=message,
    )


def large_doc(seed: int, n_apis: int) -> Doc:
    return Doc(*scaled_doc(n_apis, random.Random(seed)))


def many_docs(seed: int, n_docs: int) -> list[Doc]:
    """Documents of 12 APIs each; words are fresh within a document and may
    repeat across documents."""
    rng = random.Random(seed)
    return [Doc(*scaled_doc(12, rng)) for _ in range(n_docs)]


def session_rounds(
    seed: int, docs: list[Doc], n_rounds: int, docs_per_round: int, shapes: tuple[str, ...]
) -> list[list[Session]]:
    """*n_rounds* rounds of ``ROUND_PATHS`` in a seeded order. Round *r* uses
    the next *docs_per_round* documents (cycling), one after another."""
    rng = random.Random(seed)
    rounds = []
    for r in range(n_rounds):
        paths = list(ROUND_PATHS)
        rng.shuffle(paths)
        doc_ids = [(r * docs_per_round + i) % len(docs) for i in range(docs_per_round)]
        per_doc = -(-len(paths) // docs_per_round)
        sessions = []
        for i, path in enumerate(paths):
            d = doc_ids[i // per_doc]
            shape = shapes[i % len(shapes)]
            sessions.append(make_session(f"r{r:03d}-s{i:02d}", d, docs[d], path, shape, rng))
        rounds.append(sessions)
    return rounds


# -- classify corpus -----------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    output: str
    truth: str
    label: str


def classify_passes(
    seed: int, doc: Doc, n_passes: int, per_label: int
) -> list[list[Sample]]:
    """Each pass labels *per_label* recorded outputs of every class."""
    rng = random.Random(seed)
    shapes = ("plain", "verbose", "bare")
    passes = []
    for _ in range(n_passes):
        samples = []
        for label in CLASSIFY_LABELS:
            for i in range(per_label):
                while True:
                    api = rng.choice(doc.apis)
                    args = truth_args(doc.bases[api["name"]], api, rng)
                    text = inject(label, doc, api, args, rng, argmax=False)
                    if text is not None:
                        break
                output = reply(text, shapes[i % len(shapes)], rng)
                samples.append(Sample(output, call_text(api["name"], args), label))
        rng.shuffle(samples)
        passes.append(samples)
    return passes
