"""Hash what the pipeline outputs on the benchmark's inputs.

    python3 tools/output_identity.py                  # this checkout
    python3 tools/output_identity.py --src OTHER/src  # another checkout's package

Runs every session of the sessions-large-doc and sessions-many-docs
workloads, each round through ``run_benchmark`` with a log directory and a
fixed clock, and labels every sample of classify-large-doc, at seeds 1
and 41. Prints one SHA-256 per part:

- ``results``: every field of each result but ``request``: the verdict,
  the response, the error, the LLM calls, the token totals and the
  executed sequence;
- ``request``: each result's final request, serialized (``null`` for none);
- ``logs``: every file of each round's log directory (the session JSONL,
  ``summary.json``, ``report.json``), name and bytes;
- ``labels``: every classify label.

Then the counts of sessions, of sessions without a final request, of LLM
calls and of tokens, and three figures of the package's size: its lines
(``src_loc``, as ``wc -l`` counts them over its modules), the names in
``autofeedback.__all__`` (``public_names``) and the options the CLI
registers over all commands, ``--help`` aside (``cli_options``). Equal
digests from two checkouts mean byte-identical outputs on these inputs.
The inputs come from the generators in ``perfbench/``, which this script
only imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOCK = "2024-01-01T00:00:00+00:00"
SEEDS = (1, 41)


def _sessions(workloads, orchestrator, name, seed, work, digests, counts):
    from autofeedback.gateways import MockApiServer, ScriptedLlm
    from autofeedback.request_codec import serialize_request

    workload = workloads.build(name, seed, work)
    docs, models = workloads.set_up(workload.doc_paths)
    model_of = {id(d): m for d, m in zip(docs, models)}
    for index, sessions in enumerate(workload.rounds):
        doc_of = {s.task_id: s.doc for s in sessions}
        tasks = [
            orchestrator.BenchTask(s.task_id, s.instruction, docs[s.doc], s.truth, s.script)
            for s in sessions
        ]
        log_dir = work / f"logs-{index}"
        _report, results = orchestrator.run_benchmark(
            tasks,
            workloads.CONFIG,
            llm_factory=lambda task: ScriptedLlm(list(task.script)),
            executor_factory=lambda task: MockApiServer(
                workload.routes[doc_of[task.task_id]]
            ),
            model_factory=lambda doc: model_of[id(doc)],
            log_dir=log_dir,
            clock=lambda: CLOCK,
        )
        for r in results:
            response = None if r.response is None else [r.response.status, r.response.body]
            fields = [
                r.log.task_id, r.satisfied, response, r.error, r.total_llm_calls,
                list(r.log.token_totals), orchestrator.executed_sequence(r),
            ]
            request = None if r.request is None else serialize_request(r.request)
            digests["results"].update(json.dumps(fields).encode() + b"\n")
            digests["request"].update(json.dumps(request).encode() + b"\n")
            counts["sessions"] += 1
            counts["no_request"] += r.request is None
            counts["llm_calls"] += r.total_llm_calls
            counts["tokens"] += sum(r.log.token_totals)
        for path in sorted(log_dir.iterdir()):
            digests["logs"].update(path.name.encode() + b"\n" + path.read_bytes())


def _labels(workloads, seed, work, digests):
    from autofeedback.request_codec import parse_llm_output, parse_request
    from autofeedback.static_scanner import classify_against_truth

    workload = workloads.build("classify-large-doc", seed, work)
    [doc], [model] = workloads.set_up(workload.doc_paths)
    for samples in workload.passes:
        for sample in samples:
            label = classify_against_truth(
                parse_llm_output(sample.output),
                parse_request(sample.truth).request,
                doc,
                model,
                workloads.THRESHOLD,
            )
            digests["labels"].update(label.value.encode() + b"\n")


def _size() -> dict:
    import autofeedback
    from autofeedback import cli

    [commands] = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        "src_loc": sum(
            path.read_bytes().count(b"\n")
            for path in Path(autofeedback.__file__).parent.glob("*.py")
        ),
        "public_names": len(autofeedback.__all__),
        "cli_options": sum(
            1
            for parser in commands.choices.values()
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the package")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import workloads
    from autofeedback import orchestrator

    digests = {part: hashlib.sha256() for part in ("results", "request", "logs", "labels")}
    counts = dict.fromkeys(("sessions", "no_request", "llm_calls", "tokens"), 0)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in ("sessions-large-doc", "sessions-many-docs"):
                work = Path(tmp) / f"{name}-{seed}"
                _sessions(workloads, orchestrator, name, seed, work, digests, counts)
            _labels(workloads, seed, Path(tmp) / f"classify-{seed}", digests)
    print(f"package: {Path(orchestrator.__file__).parent}")
    for part, digest in digests.items():
        print(f"{part}: {digest.hexdigest()}")
    print(json.dumps({**counts, **_size()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
