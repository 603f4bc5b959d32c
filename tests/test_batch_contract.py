"""No text that a gateway returns can lose a batch.

Whole batches run through ``run_benchmark`` with a log directory, under
gateways that never raise but answer with hostile text: replies built from
the request codec's hostile alphabet and lone surrogates, any status from 0
to 999 and any response body. Every session must end without an error of
its own, keep the loop budgets and log lines that parse, and ``report``
must print the logs to a strict UTF-8 stream.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from autofeedback import ApiResponse, BenchTask, ErrorType, PipelineConfig, run_benchmark
from autofeedback.cli import main
from autofeedback.gateways import ApiExecutor

from test_request_codec import _FRAGMENTS

_SURROGATES = ("\ud800", "\udbff", "\udc00", "\udfff")
_REQUESTS = (
    'userLogin(username="kate", days=3)',
    'userLogin(username="k\ud800", days=3)',
    'route_planning(origin="39.9,116.4", dest="31.2,121.5")',
)
_PIECES = _FRAGMENTS + _SURROGATES + (
    "<<API>>", "<</API>>", "Thought: ", "userLogin(", 'username="k', "days=3", "route_planning(",
)
_REPLIES = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.sampled_from(_REQUESTS).map("<<API>>{}<</API>>".format),
)
_BODIES = st.lists(
    st.one_of(st.characters(), st.sampled_from(_SURROGATES)), max_size=20
).map("".join)
_RESPONSES = st.lists(
    st.builds(ApiResponse, st.just(200) | st.integers(0, 999), _BODIES),
    min_size=1,
    max_size=3,
)
_TASKS = st.lists(
    st.tuples(
        st.lists(_REPLIES, min_size=1, max_size=4),
        _RESPONSES,
        st.none() | st.sampled_from(_REQUESTS),
    ),
    min_size=1,
    max_size=3,
)


class _ReplayExecutor(ApiExecutor):
    """Answers with its responses in turn, whatever the request."""

    def __init__(self, responses):
        self.responses = responses
        self.executed = []

    def execute(self, req):
        self.executed.append(req)
        return self.responses[(len(self.executed) - 1) % len(self.responses)]


@settings(max_examples=40, deadline=None)
@given(_TASKS, st.integers(0, 3), st.integers(0, 3))
def test_no_gateway_text_loses_a_batch(doc, model, drawn, max_static, max_dynamic):
    config = PipelineConfig(max_static=max_static, max_dynamic=max_dynamic)
    tasks = [
        BenchTask(f"t{i}", "Log me into the system.", doc, truth, tuple(script))
        for i, (script, _, truth) in enumerate(drawn)
    ]
    executors = {
        task.task_id: _ReplayExecutor(responses)
        for task, (_, responses, _) in zip(tasks, drawn)
    }
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp)
        _, results = run_benchmark(
            tasks, config,
            executor_factory=lambda task: executors[task.task_id],
            model_factory=lambda d: model,
            log_dir=log_dir,
            clock=lambda: "t",
        )
        for task, result in zip(tasks, results):
            assert result.error is None
            executed = executors[task.task_id].executed
            assert result.total_llm_calls <= 1 + max_static + 2 * max_dynamic
            assert len(executed) <= 1 + max_dynamic
            if result.log.static_events[-1].finding.error_type is not ErrorType.NONE:
                assert not executed and result.request is None
            # A log line ends at "\n" only: a raw U+2028 or U+0085 stays in its line.
            text = (log_dir / f"{task.task_id}.jsonl").read_bytes().decode("utf-8")
            lines = text.split("\n")
            assert lines.pop() == ""
            for line in lines:
                assert isinstance(json.loads(line), dict)

        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout):
            assert main(["report", "--log-dir", str(log_dir)]) == 0
