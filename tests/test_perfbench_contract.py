"""The library surface the offline benchmark (``perfbench/``) relies on.

The benchmark's own files are fixed between runs of the parent and of a
change, so a deleted or reshaped name breaks the comparison. This checks the
names and call shapes without running any workload.
"""

import inspect
import sys
from pathlib import Path

from autofeedback import (
    ApiDocument,
    ApiRequest,
    ErrorType,
    ParseOutcome,
    TfidfSimilarity,
    default_similarity,
    load_document,
    orchestrator,
    parse_request,
    static_scanner,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIXTURE_DOC = Path(__file__).resolve().parent / "data" / "fixture_doc.json"


def _tracing():
    # No bytecode cache is written into the benchmark's directory.
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return tracing


def test_tracer_resolves_every_target_and_installs_nothing():
    tracing = _tracing()

    def current():
        values = []
        for module, path, _ in tracing.TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            values.append(vars(owner)[attr])
        return values

    before = current()
    tracer = tracing.Tracer()
    assert len(tracing.TARGETS) == 21
    assert len(tracer.stats) == 21
    assert all(a is b for a, b in zip(current(), before))


def test_call_shapes_used_by_the_benchmark():
    placeholder = object()
    inspect.signature(static_scanner.classify_against_truth).bind(
        placeholder, placeholder, placeholder, placeholder, placeholder
    )
    inspect.signature(orchestrator.run_benchmark).bind(
        placeholder,
        placeholder,
        llm_factory=placeholder,
        executor_factory=placeholder,
        model_factory=placeholder,
        log_dir=placeholder,
        jobs=2,
    )


def test_classify_runs_on_the_benchmark_argument_types():
    # The classify workload loads each doc from its file, fits the default
    # model, parses the truth and the reply, and passes the threshold 0.5.
    doc = load_document(FIXTURE_DOC)
    model = default_similarity(doc)
    truth = parse_request('list_medicines(name="aspirin")').request
    outcome = orchestrator.parse_llm_output(
        'I will now call medicines_list(name="aspirin") and report back.'
    )
    assert isinstance(doc, ApiDocument) and isinstance(model, TfidfSimilarity)
    assert isinstance(truth, ApiRequest) and isinstance(outcome, ParseOutcome)
    label = static_scanner.classify_against_truth(outcome, truth, doc, model, 0.5)
    assert label is ErrorType.E2_3
