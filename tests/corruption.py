"""Deterministic corruption of valid requests against the fixture document.

Every case starts from a correct request for one API (the instruction is
that API's own description, so the retriever always ranks it first) and
injects exactly the fault the target class describes. Semantic-class
corruptions (E2.3, E3.3) are pre-verified with the brute-force TF-IDF
oracle: the corrupted name must score above the detection threshold
against its source and the source must be the score argmax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from autofeedback import ApiDocument, ApiRequest, ApiSpec, ErrorType, ValueType
from autofeedback.doc_model import normalize_name
from autofeedback.request_codec import serialize_request, serialize_value

from oracles import oracle_tfidf_score

THRESHOLD = 0.5

_STRINGS = ["alpha", "beta", "kyoto", "oslo", "10:30", "2024-06-01", "ACME"]
_WORD_VALUES = ["three", "many", "soon", "yes"]


@dataclass(frozen=True)
class CorruptCase:
    label: ErrorType
    api_name: str
    instruction: str
    text: str
    expected_suggestion: str | None = None
    expected_offending: str | None = None
    expected_description: str | None = None


def sample_value(value_type: ValueType, rng: random.Random):
    if value_type is ValueType.STRING:
        return rng.choice(_STRINGS)
    if value_type is ValueType.INT:
        return rng.randint(1, 99)
    if value_type is ValueType.FLOAT:
        return round(rng.uniform(0.5, 100.0), 2)
    if value_type is ValueType.BOOL:
        return rng.choice([True, False])
    if value_type is ValueType.LIST:
        return [rng.choice(_STRINGS) for _ in range(rng.randint(1, 3))]
    if value_type is ValueType.TUPLE:
        return tuple(rng.choice(_STRINGS) for _ in range(rng.randint(1, 3)))
    if value_type is ValueType.DICT:
        return {rng.choice(["stars", "price", "area"]): rng.randint(1, 5)}
    raise AssertionError(value_type)


def base_request(api: ApiSpec, rng: random.Random) -> ApiRequest:
    """A correct request: every required parameter, correctly typed."""
    args = []
    for p in api.params:
        if p.required or rng.random() < 0.3:
            args.append((p.name, sample_value(p.value_type, rng)))
    return ApiRequest(api.name, tuple(args))


def instruction_for(api: ApiSpec) -> str:
    return api.description


def _incompatible_value(value_type: ValueType, rng: random.Random):
    """A literal whose inferred type cannot satisfy the documented one."""
    if value_type is ValueType.INT:
        return rng.choice([rng.choice(_WORD_VALUES), 2.5, True])
    if value_type is ValueType.FLOAT:
        return rng.choice([rng.choice(_WORD_VALUES), False])
    if value_type is ValueType.STRING:
        return rng.choice([rng.randint(1, 9), True])
    if value_type is ValueType.BOOL:
        return rng.choice(["yes", 1])
    if value_type is ValueType.LIST:
        return rng.choice(["monday", 3])
    if value_type is ValueType.TUPLE:
        return rng.choice([["a", "b"], "all"])
    if value_type is ValueType.DICT:
        return rng.choice([["stars"], 4])
    raise AssertionError(value_type)


def _multi_token(name: str) -> list[str]:
    return name.split("_")


def _name_variants_literal(name: str, rng: random.Random) -> list[str]:
    """Same normalized form, different text: case and separator changes."""
    tokens = _multi_token(name)
    variants = [name.upper(), name.capitalize()]
    if len(tokens) > 1:
        # snake -> camel
        variants.append(tokens[0] + "".join(t.capitalize() for t in tokens[1:]))
        variants.append("_".join(t.capitalize() for t in tokens))
    else:
        # camel -> snake on the case boundary, e.g. userLogin -> user_login
        snake = "".join("_" + c.lower() if c.isupper() else c for c in name)
        if snake != name:
            variants.append(snake)
        variants.append(name.lower() if name != name.lower() else name.upper())
    rng.shuffle(variants)
    return variants


def _name_variants_semantic(name: str, rng: random.Random) -> list[str]:
    """Different normalized form but heavy token overlap with the source."""
    tokens = _multi_token(name)
    variants = ["_".join(reversed(tokens))]
    for filler in ("the", "all", "my", "info"):
        variants.append("_".join([tokens[0], filler, *tokens[1:]]))
        variants.append("_".join([*tokens, filler]))
    rng.shuffle(variants)
    return variants


class Corruptor:
    """Builds labeled corruption cases over one document."""

    def __init__(self, doc: ApiDocument, seed: int = 20_240_809):
        self.doc = doc
        self.rng = random.Random(seed)
        self.corpus = [
            "\n".join(
                part
                for part in (
                    api.name,
                    api.description,
                    *(p.description for p in api.params),
                    *(f"Error {c}: {m}" for c, m in api.exceptions),
                )
                if part
            )
            for api in doc.apis
        ]
        self._all_param_names = {
            p.name for api in doc.apis for p in api.params
        }

    def _score(self, a: str, b: str) -> float:
        return oracle_tfidf_score(a, b, self.corpus)

    def _case(
        self, label, api, text, suggestion=None, offending=None, description=None
    ) -> CorruptCase:
        return CorruptCase(
            label, api.name, instruction_for(api), text, suggestion, offending,
            description,
        )

    # -- E1 ----------------------------------------------------------------
    def e1(self, api: ApiSpec) -> CorruptCase:
        good = serialize_request(base_request(api, self.rng))
        broken = self.rng.choice(
            [
                good[:-1],  # missing closing paren
                good.replace("=", ":", 1),
                "I cannot call any API for this task.",
                f"{api.name}(x=1, x=2)",  # duplicate key
                good.replace("(", "", 1),
            ]
        )
        return self._case(ErrorType.E1, api, broken)

    # -- E2 ----------------------------------------------------------------
    def e2_1(self, api: ApiSpec) -> CorruptCase:
        other = self.rng.choice([a for a in self.doc.apis if a.name != api.name])
        req = base_request(api, self.rng)
        text = serialize_request(ApiRequest(other.name, req.args))
        return self._case(ErrorType.E2_1, api, text, offending=other.name)

    def e2_2(self, api: ApiSpec) -> CorruptCase:
        for variant in _name_variants_literal(api.name, self.rng):
            if variant == api.name or variant in self.doc.api_names:
                continue
            if normalize_name(variant) != normalize_name(api.name):
                continue
            req = base_request(api, self.rng)
            text = serialize_request(ApiRequest(variant, req.args))
            return self._case(
                ErrorType.E2_2, api, text, suggestion=api.name, offending=variant
            )
        raise AssertionError(f"no literal variant for {api.name}")

    def e2_3(self, api: ApiSpec) -> CorruptCase:
        normalized_names = {normalize_name(a.name) for a in self.doc.apis}
        for variant in _name_variants_semantic(api.name, self.rng):
            if variant in self.doc.api_names:
                continue
            if normalize_name(variant) in normalized_names:
                continue
            score = self._score(variant, api.name)
            if score <= THRESHOLD:
                continue
            others = max(
                self._score(variant, a.name)
                for a in self.doc.apis
                if a.name != api.name
            )
            if others >= score:
                continue  # argmax must be the source API
            req = base_request(api, self.rng)
            text = serialize_request(ApiRequest(variant, req.args))
            return self._case(
                ErrorType.E2_3, api, text, suggestion=api.name, offending=variant
            )
        raise AssertionError(f"no semantic variant for {api.name}")

    # -- E3 ----------------------------------------------------------------
    def _replace_key(self, req: ApiRequest, old: str, new: str) -> ApiRequest:
        args = tuple((new if k == old else k, v) for k, v in req.args)
        return ApiRequest(req.name, args)

    def e3_1(self, api: ApiSpec) -> CorruptCase:
        foreign = sorted(
            {
                p.name
                for a in self.doc.apis
                if a.name != api.name
                for p in a.params
                if p.name not in api.params_by_name
            }
        )
        key = self.rng.choice(foreign)
        req = base_request(api, self.rng)
        victim = self.rng.choice([k for k, _ in req.args])
        text = serialize_request(self._replace_key(req, victim, key))
        return self._case(ErrorType.E3_1, api, text, offending=key)

    def e3_2(self, api: ApiSpec, param_name: str) -> CorruptCase:
        # Only valid for parameters that exist under the same normalized
        # name in another API (the literal cascade looks there).
        for variant in _name_variants_literal(param_name, self.rng):
            if variant == param_name or variant in self._all_param_names:
                continue
            if normalize_name(variant) != normalize_name(param_name):
                continue
            req = base_request(api, self.rng)
            text = serialize_request(self._replace_key(req, param_name, variant))
            return self._case(
                ErrorType.E3_2, api, text, suggestion=param_name, offending=variant
            )
        raise AssertionError(f"no literal variant for {param_name}")

    def e3_3(self, api: ApiSpec, param_name: str) -> CorruptCase:
        other_normalized = {
            normalize_name(p.name)
            for a in self.doc.apis
            if a.name != api.name
            for p in a.params
        }
        for variant in _name_variants_semantic(param_name, self.rng):
            if variant in self._all_param_names:
                continue
            if normalize_name(variant) in other_normalized:
                continue
            score = self._score(variant, param_name)
            if score <= THRESHOLD:
                continue
            rest = [
                self._score(variant, p.name)
                for p in api.params
                if p.name != param_name
            ]
            if rest and max(rest) >= score:
                continue
            req = base_request(api, self.rng)
            if param_name not in dict(req.args):
                value_type = api.params_by_name[param_name].value_type
                req = ApiRequest(
                    req.name, req.args + ((param_name, sample_value(value_type, self.rng)),)
                )
            text = serialize_request(self._replace_key(req, param_name, variant))
            return self._case(
                ErrorType.E3_3, api, text, suggestion=param_name, offending=variant
            )
        raise AssertionError(f"no semantic variant for {param_name}")

    # -- E4 ----------------------------------------------------------------
    def e4_1(self, api: ApiSpec) -> CorruptCase:
        req = base_request(api, self.rng)
        victim = self.rng.choice([k for k, _ in req.args])
        param = api.params_by_name[victim]
        bad = _incompatible_value(param.value_type, self.rng)
        args = tuple((k, bad if k == victim else v) for k, v in req.args)
        text = serialize_request(ApiRequest(req.name, args))
        return self._case(
            ErrorType.E4_1,
            api,
            text,
            offending=serialize_value(bad),
            description=param.description,
        )


# APIs eligible for each class on the fixture document.
MULTI_TOKEN_APIS = [
    "list_medicines", "route_planning", "get_weather", "send_message",
    "book_flight", "currency_convert", "add_alarm", "search_hotels",
    "stock_quote", "schedule_meeting",
]
TWINNED_PARAMS = [
    ("userLogin", "username"),
    ("userLogout", "username"),
    ("get_weather", "city"),
    ("search_hotels", "city"),
]
MULTI_TOKEN_PARAMS = [
    ("currency_convert", "from_currency"),
    ("currency_convert", "to_currency"),
    ("schedule_meeting", "duration_minutes"),
]


def _fault_positions(req: ApiRequest) -> list[int]:
    return list(range(len(req.args)))


class MultiFaultBuilder:
    """Composes two or more simultaneous faults into one request.

    The expected label is the lowest-numbered applicable stage: a name
    fault masks key and value faults, a key fault masks value faults, and
    between two key faults the one earlier in argument order wins.
    """

    def __init__(self, doc: ApiDocument, seed: int):
        self.doc = doc
        self.corruptor = Corruptor(doc, seed)
        self.rng = self.corruptor.rng
        self.by_name = {a.name: a for a in doc.apis}

    def _corrupt_value_at(self, api: ApiSpec, req: ApiRequest, index: int) -> ApiRequest:
        key, _ = req.args[index]
        bad = _incompatible_value(api.params_by_name[key].value_type, self.rng)
        args = tuple(
            (k, bad if i == index else v) for i, (k, v) in enumerate(req.args)
        )
        return ApiRequest(req.name, args)

    def _corrupt_name(self, api: ApiSpec, req: ApiRequest) -> tuple[ApiRequest, ErrorType]:
        kinds = [ErrorType.E2_1, ErrorType.E2_2]
        if api.name in MULTI_TOKEN_APIS:
            kinds.append(ErrorType.E2_3)
        kind = self.rng.choice(kinds)
        if kind is ErrorType.E2_1:
            other = self.rng.choice(
                [a for a in self.doc.apis if a.name != api.name]
            )
            return ApiRequest(other.name, req.args), ErrorType.E2_1
        if kind is ErrorType.E2_2:
            case = self.corruptor.e2_2(api)
            name = case.expected_offending
        else:
            case = self.corruptor.e2_3(api)
            name = case.expected_offending
        return ApiRequest(name, req.args), kind

    def _corrupt_key_at(
        self, api: ApiSpec, req: ApiRequest, index: int
    ) -> tuple[ApiRequest, ErrorType]:
        key = req.args[index][0]
        choices = [ErrorType.E3_1]
        if (api.name, key) in TWINNED_PARAMS:
            choices.append(ErrorType.E3_2)
        if (api.name, key) in MULTI_TOKEN_PARAMS:
            choices.append(ErrorType.E3_3)
        kind = self.rng.choice(choices)
        if kind is ErrorType.E3_1:
            foreign = sorted(
                {
                    p.name
                    for a in self.doc.apis
                    if a.name != api.name
                    for p in a.params
                    if p.name not in api.params_by_name
                    and p.name not in dict(req.args)
                }
            )
            new_key = self.rng.choice(foreign)
        elif kind is ErrorType.E3_2:
            case = self.corruptor.e3_2(api, key)
            new_key = case.expected_offending
        else:
            case = self.corruptor.e3_3(api, key)
            new_key = case.expected_offending
        args = tuple(
            (new_key if i == index else k, v) for i, (k, v) in enumerate(req.args)
        )
        return ApiRequest(req.name, args), kind

    def build(self) -> CorruptCase:
        pattern = self.rng.choice(
            ["name+value", "name+key", "key+value", "key+key", "break+value"]
        )
        if pattern in ("key+key",):
            api = self.by_name[
                self.rng.choice(["userLogin", "currency_convert", "schedule_meeting",
                                 "book_flight"])
            ]
        else:
            api = self.rng.choice(self.doc.apis)
        req = base_request(api, self.rng)
        positions = _fault_positions(req)

        if pattern == "name+value":
            index = self.rng.choice(positions)
            req = self._corrupt_value_at(api, req, index)
            req, label = self._corrupt_name(api, req)
        elif pattern == "name+key":
            index = self.rng.choice(positions)
            req, _ = self._corrupt_key_at(api, req, index)
            req, label = self._corrupt_name(api, req)
        elif pattern == "key+value":
            if len(positions) < 2:
                return self.build()
            key_pos, value_pos = self.rng.sample(positions, 2)
            req = self._corrupt_value_at(api, req, value_pos)
            req, label = self._corrupt_key_at(api, req, key_pos)
        elif pattern == "key+key":
            first, second = sorted(self.rng.sample(positions, 2))
            req, _masked = self._corrupt_key_at(api, req, second)
            req, label = self._corrupt_key_at(api, req, first)
        else:  # break+value: unparseable text trumps everything
            index = self.rng.choice(positions)
            req = self._corrupt_value_at(api, req, index)
            text = serialize_request(req)[:-1]
            return CorruptCase(ErrorType.E1, api.name, instruction_for(api), text)
        return CorruptCase(
            label, api.name, instruction_for(api), serialize_request(req)
        )


def build_multifault_cases(
    doc: ApiDocument, n: int = 500, seed: int = 481_516
) -> list[CorruptCase]:
    builder = MultiFaultBuilder(doc, seed)
    return [builder.build() for _ in range(n)]


def build_arity_cases(
    doc: ApiDocument, n: int = 1000, seed: int = 2_342
) -> list[CorruptCase]:
    """Randomized mix for the finding-arity property: every corruption
    class, clean requests, multi-fault requests, and raw garbage."""
    corruptor = Corruptor(doc, seed)
    builder = MultiFaultBuilder(doc, seed + 1)
    rng = corruptor.rng
    by_name = {a.name: a for a in doc.apis}
    cases: list[CorruptCase] = []
    while len(cases) < n:
        roll = rng.randrange(11)
        api = rng.choice(doc.apis)
        if roll == 0:
            cases.append(corruptor.e1(api))
        elif roll == 1:
            cases.append(corruptor.e2_1(api))
        elif roll == 2:
            cases.append(corruptor.e2_2(api))
        elif roll == 3:
            cases.append(corruptor.e2_3(by_name[rng.choice(MULTI_TOKEN_APIS)]))
        elif roll == 4:
            cases.append(corruptor.e3_1(api))
        elif roll == 5:
            name, param = rng.choice(TWINNED_PARAMS)
            cases.append(corruptor.e3_2(by_name[name], param))
        elif roll == 6:
            name, param = rng.choice(MULTI_TOKEN_PARAMS)
            cases.append(corruptor.e3_3(by_name[name], param))
        elif roll == 7:
            cases.append(corruptor.e4_1(api))
        elif roll == 8:
            req = base_request(api, rng)
            cases.append(
                CorruptCase(
                    ErrorType.NONE, api.name, instruction_for(api),
                    serialize_request(req),
                )
            )
        elif roll == 9:
            cases.append(builder.build())
        else:
            garbage = rng.choice(
                ["", "????", "no call today", "f(((", "name = value"]
            )
            cases.append(
                CorruptCase(ErrorType.E1, api.name, instruction_for(api), garbage)
            )
    return cases


def build_corpus_cases(
    doc: ApiDocument, per_class: int = 30, seed: int = 20_240_809
) -> list[CorruptCase]:
    """The classification corpus: *per_class* cases for each of the eight
    corruption classes, deterministic in the seed."""
    corruptor = Corruptor(doc, seed)
    by_name = {a.name: a for a in doc.apis}
    cases: list[CorruptCase] = []

    def cycle(pool):
        while True:
            for item in pool:
                yield item

    apis = cycle(list(doc.apis))
    multi_apis = cycle([by_name[n] for n in MULTI_TOKEN_APIS])
    twins = cycle(TWINNED_PARAMS)
    multi_params = cycle(MULTI_TOKEN_PARAMS)

    for _ in range(per_class):
        cases.append(corruptor.e1(next(apis)))
        cases.append(corruptor.e2_1(next(apis)))
        cases.append(corruptor.e2_2(next(apis)))
        cases.append(corruptor.e2_3(next(multi_apis)))
        cases.append(corruptor.e3_1(next(apis)))
        api_name, param = next(twins)
        cases.append(corruptor.e3_2(by_name[api_name], param))
        api_name, param = next(multi_params)
        cases.append(corruptor.e3_3(by_name[api_name], param))
        cases.append(corruptor.e4_1(next(apis)))
    return cases
