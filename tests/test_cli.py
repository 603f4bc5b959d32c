import argparse
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from autofeedback import ExactMatchJudge, ScriptedLlm, cli, orchestrator, run_task
from autofeedback.cli import main
from autofeedback.orchestrator import echo_executor

from conftest import FIXTURE_DOC

TRUTH = 'userLogin(username="kate", days=3)'
INSTRUCTION = "Log me into the system and start my session."


def wrap(text):
    return f"<<API>>{text}<</API>>"


def run_cli(*argv):
    return main(list(argv))


def write_dataset(path: Path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def dataset_lines(n_ok=7, n_bad=3):
    lines = []
    for i in range(n_ok):
        lines.append(
            {
                "id": f"ok-{i}",
                "instruction": INSTRUCTION,
                "ground_truth": TRUTH,
                "doc": str(FIXTURE_DOC),
                "script": [wrap(TRUTH)],
            }
        )
    for i in range(n_bad):
        lines.append(
            {
                "id": f"zz-bad-{i}",
                "instruction": INSTRUCTION,
                "ground_truth": TRUTH,
                "doc": str(FIXTURE_DOC),
                "script": ["no api call here"],
            }
        )
    return lines


# -- run ---------------------------------------------------------------------

def test_run_happy_path(tmp_path, capsys):
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(TRUTH),
        "--ground-truth", TRUTH,
        "--log-dir", str(tmp_path),
        "--task-id", "t1",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "satisfied" in out
    log = (tmp_path / "t1.jsonl").read_text()
    assert json.loads(log.splitlines()[0])["task_id"] == "t1"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tasks"][0]["satisfied"] is True


@pytest.mark.parametrize(
    "param, where",
    [
        ({"name": "p", "type": ["string"]}, "apis[0].parameters[0].type"),
        ({"name": "p", "type": "int", "description": None}, "apis[0].parameters[0].description"),
    ],
)
def test_run_doc_with_bad_field_exits_2(tmp_path, capsys, param, where):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"apis": [{"name": "a", "parameters": [param]}]}), encoding="utf-8")
    code = run_cli("run", "do a", "--doc", str(bad), "--script", "x", "--log-dir", str(tmp_path / "logs"))
    assert code == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "logs").exists()


def test_run_missing_doc_exits_2(tmp_path, capsys):
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(tmp_path / "nope.json"),
        "--script", "x",
        "--log-dir", str(tmp_path),
    )
    assert code == 2
    assert f"cannot read documentation file {tmp_path / 'nope.json'}" in capsys.readouterr().err
    # A missing dataset takes the same path, for both commands that read one.
    for command in ("bench", "classify"):
        assert run_cli(command, "--dataset", str(tmp_path / "nope.jsonl")) == 2
        assert f"cannot read dataset {tmp_path / 'nope.jsonl'}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_never_correct_exits_1(tmp_path):
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--script", "never a call",
        "--log-dir", str(tmp_path),
        "--task-id", "t2",
    )
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    entry = summary["tasks"][0]
    assert entry["satisfied"] is False
    assert entry["llm_calls"] == 4  # initial + default static budget


def test_run_prints_no_final_request_after_the_static_budget(tmp_path, capsys):
    # The wrong-API request is rejected four times and never sent.
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--script", wrap("userLogout()"),
        "--log-dir", str(tmp_path),
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "llm calls: 4" in out
    assert "final request" not in out


@pytest.mark.parametrize("where", ["relative", "absolute"])
def test_run_task_id_outside_log_dir_exits_2(
    tmp_path, capsys, monkeypatch, stub_server, where
):
    base_url, handler = stub_server
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    log_dir = tmp_path / "logs"
    task_id = "../escaped" if where == "relative" else str(tmp_path / "abs")
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--llm-base-url", base_url,
        "--log-dir", str(log_dir),
        "--task-id", task_id,
    )
    assert code == 2
    assert "not a plain file name" in capsys.readouterr().err
    assert handler.requests_seen == []  # no LLM call
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_run_writes_the_report_of_its_one_task(tmp_path):
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(TRUTH),
        "--ground-truth", TRUTH,
        "--log-dir", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_tasks"] == 1
    assert report["accuracy_pct"] == 100.0
    assert report["process_correctness_pct"] == 100.0


def test_run_prints_why_the_session_stopped(tmp_path, capsys, monkeypatch, stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (503, "{}")
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--llm-base-url", base_url,
        "--log-dir", str(tmp_path),
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "  error: " in out and "unreachable after 3 attempts" in out


def _one_task_argv(command, tmp_path, **fields):
    """argv running one task through *command*: ``run`` takes it as flags,
    ``bench`` and ``classify`` from a one-line dataset."""
    line = dict(dataset_lines(1, 0)[0], **fields)
    if command == "run":
        argv = ["run", line["instruction"], "--doc", line["doc"], "--task-id", line["id"]]
        argv += [a for s in line["script"] or () for a in ("--script", s)]
        if line["ground_truth"] is not None:
            argv += ["--ground-truth", line["ground_truth"]]
    else:
        write_dataset(tmp_path / "tasks.jsonl", [line])
        argv = [command, "--dataset", str(tmp_path / "tasks.jsonl")]
    if command == "classify":
        return argv
    return argv + ["--log-dir", str(tmp_path / "logs")]


def _completion(text):
    """A chat-completions stub behavior answering *text*."""
    return 200, json.dumps({
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 5},
    })


@pytest.mark.parametrize("command", ["run", "bench"])
def test_unparseable_ground_truth_exits_2_before_any_llm_call(
    tmp_path, capsys, monkeypatch, stub_server, command
):
    base_url, handler = stub_server
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    argv = _one_task_argv(command, tmp_path, id="odd", ground_truth="this is not a request")
    code = run_cli(*argv, "--llm-base-url", base_url)
    assert code == 2
    assert "task 'odd': ground truth does not parse" in capsys.readouterr().err
    assert handler.requests_seen == []
    assert not (tmp_path / "logs").exists()


@pytest.mark.parametrize("command", ["run", "bench", "classify"])
def test_embedder_failure_while_preparing_exits_3(
    tmp_path, capsys, monkeypatch, stub_server, command
):
    base_url, handler = stub_server
    handler.default_behavior = (500, "{}")
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    # Without a script the task's first reply would come from the LLM.
    argv = _one_task_argv(command, tmp_path, script=None)
    code = run_cli(
        *argv, "--embedder-base-url", base_url + "/embed", "--llm-base-url", base_url + "/llm"
    )
    assert code == 3
    assert "transport error" in capsys.readouterr().err
    assert {path for _, path, _ in handler.requests_seen} == {"/embed/embeddings"}
    assert not (tmp_path / "logs").exists()


WRONG_NAME = wrap('user_login(username="kate", days=3)')  # an E2.2 against TRUTH


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_task_script_replays_before_the_remote_llm(
    tmp_path, monkeypatch, stub_server, command
):
    base_url, handler = stub_server
    handler.default_behavior = _completion(wrap(TRUTH))
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    argv = _one_task_argv(command, tmp_path, script=[WRONG_NAME])
    assert run_cli(*argv, "--llm-base-url", base_url) == 0
    [summary] = json.loads((tmp_path / "logs" / "summary.json").read_text())["tasks"]
    assert summary["satisfied"] is True
    assert len(handler.requests_seen) == summary["llm_calls"] - 1 == 1
    events = (tmp_path / "logs" / "ok-0.jsonl").read_text().splitlines()
    assert [json.loads(e)["error_type"] for e in events] == ["E2.2", None]


def test_run_needs_no_llm_call_past_its_script(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(TRUTH),
        "--ground-truth", TRUTH,
        "--llm-base-url", "http://127.0.0.1:9",
        "--log-dir", str(tmp_path),
    )
    assert code == 0
    assert "  llm calls: 1\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "bench"])
def test_an_integer_past_the_digit_limit_is_a_syntax_error(tmp_path, command):
    reply = wrap(f'userLogin(username="kate", days={"9" * 5000})')
    argv = _one_task_argv(command, tmp_path, id="long", script=[reply])
    assert run_cli(*argv) == (1 if command == "run" else 0)
    events = [json.loads(line) for line in (tmp_path / "logs" / "long.jsonl").read_text().splitlines()]
    assert [e["error_type"] for e in events] == ["E1"] * 4


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_log_dir_that_is_a_file_exits_2_before_any_llm_call(
    tmp_path, capsys, monkeypatch, stub_server, command
):
    base_url, handler = stub_server
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    argv = _one_task_argv(command, tmp_path)
    (tmp_path / "logs").write_text("a file, not a directory\n")
    assert run_cli(*argv, "--llm-base-url", base_url) == 2
    assert "cannot write --log-dir" in capsys.readouterr().err
    assert handler.requests_seen == []
    assert (tmp_path / "logs").read_text() == "a file, not a directory\n"


# -- bench ---------------------------------------------------------------------

def test_bench_reports_accuracy(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines())
    log_dir = tmp_path / "logs"
    code = run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir))
    assert code == 0
    out = capsys.readouterr().out
    assert "70.00" in out
    report = json.loads((log_dir / "report.json").read_text())
    assert report["accuracy_pct"] == 70.0
    assert report["n_tasks"] == 10


def test_a_lone_surrogate_in_a_reply_loses_no_log(tmp_path):
    reply = "no call \ud800"
    lines = dataset_lines(1, 1)
    lines[1]["script"] = [reply]
    dataset = tmp_path / "ds.jsonl"
    write_dataset(dataset, lines)
    logs = tmp_path / "logs"
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(logs)) == 0
    assert sorted(path.name for path in logs.iterdir()) == [
        "ok-0.jsonl", "report.json", "summary.json", "zz-bad-0.jsonl"
    ]
    first = (logs / "zz-bad-0.jsonl").read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first)["action"] == reply
    assert run_cli("report", "--log-dir", str(logs)) == 0


def test_run_and_report_write_a_lone_surrogate_as_its_escape(tmp_path, monkeypatch):
    # pytest's capture takes any text; a file or pipe in UTF-8 takes no lone surrogate.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    final = 'userLogin(username="k\ud800", days=3)'
    script_file = tmp_path / "script.json"
    script_file.write_text(
        json.dumps([wrap('userLogin(username="kate", days="k\ud800")'), wrap(final)])
    )
    logs = tmp_path / "logs"
    assert run_cli(
        "run", INSTRUCTION, "--doc", str(FIXTURE_DOC), "--script-file", str(script_file),
        "--log-dir", str(logs), "--task-id", "t1",
    ) == 0
    assert run_cli("report", "--log-dir", str(logs)) == 0
    assert stdout.errors == "strict"
    stdout.flush()
    out = stdout.buffer.getvalue().decode("utf-8")
    assert 'final request: userLogin(username="k\\ud800", days=3)' in out
    assert 'The error is in the parameter value "k\\ud800".' in out.split("feedback: ")[1]


def test_bench_duplicate_task_id_exits_2(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    lines = dataset_lines(n_ok=2, n_bad=0)
    lines[1]["id"] = lines[0]["id"]
    write_dataset(dataset, lines)
    log_dir = tmp_path / "logs"
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir)) == 2
    assert "duplicate task id 'ok-0'" in capsys.readouterr().err
    assert not log_dir.exists()


@pytest.mark.parametrize("where", ["flag"])
def test_bench_jobs_below_one_names_the_setting_not_the_dataset(tmp_path, capsys, where):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines(n_ok=2, n_bad=0))
    log_dir = tmp_path / "logs"
    argv = ["bench", "--dataset", str(dataset), "--log-dir", str(log_dir), "--jobs", "0"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "--jobs must be >= 1, got 0" in err
    assert "dataset" not in err
    assert not log_dir.exists()


def test_bench_malformed_line_names_line_number(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    lines = [json.dumps(l) for l in dataset_lines(2, 0)]
    lines.insert(2, "{not json")
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("bench", "--dataset", str(dataset), "--log-dir", str(tmp_path / "l"))
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("char", ["\u2028", "\x85"], ids=["u2028", "u0085"])
def test_a_raw_line_separator_inside_an_instruction_stays_in_its_line(
    tmp_path, capsys, char, newline
):
    # JSON allows both characters raw inside a string, and
    # json.dumps(..., ensure_ascii=False) writes them raw.
    lines = dataset_lines(2, 1)
    lines[0]["instruction"] = f"Log in{char}as alice."
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text(
        "".join(json.dumps(line, ensure_ascii=False) + newline for line in lines),
        encoding="utf-8", newline="",
    )
    assert char in dataset.read_text(encoding="utf-8")
    log_dir = tmp_path / "logs"
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir)) == 0
    report = json.loads((log_dir / "report.json").read_text())
    assert report["n_tasks"] == 3
    assert "66.67" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("script", 5, "script must be a list of strings"),
        ("script", wrap(TRUTH), "script must be a list of strings"),
        ("script", [wrap(TRUTH), 7], "script must be a list of strings"),
        ("ground_truth", 5, "ground_truth must be a string"),
        ("ground_truth", [TRUTH, None], "ground_truth must be a string"),
        ("doc", 5, "doc must be a string"),
        ("id", 5, "id must be a string"),
        ("instruction", None, "instruction must be a string"),
    ],
    ids=[
        "script-int", "script-string", "script-mixed", "truth-int", "truth-mixed", "doc-int",
        "id-int", "instruction-null",
    ],
)
def test_dataset_field_of_the_wrong_type_exits_2(tmp_path, capsys, field, value, message):
    dataset = tmp_path / "tasks.jsonl"
    lines = dataset_lines(2, 0)
    lines[1][field] = value
    write_dataset(dataset, lines)
    for argv in (["bench", "--log-dir", str(tmp_path / "l")], ["classify"]):
        assert run_cli(*argv, "--dataset", str(dataset)) == 2
        err = capsys.readouterr().err
        assert "dataset line 2" in err and message in err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("truth", [[], [TRUTH, TRUTH], [5]], ids=["empty", "two", "int"])
@pytest.mark.parametrize("command", ["bench", "classify"])
def test_a_ground_truth_list_of_other_than_one_string_exits_2(
    tmp_path, capsys, monkeypatch, stub_server, command, truth
):
    base_url, handler = stub_server
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    lines = dataset_lines(2, 0)
    for line in lines:
        del line["script"]  # every sample goes to the http LLM
    lines[1].update(id="listed", ground_truth=truth)
    write_dataset(tmp_path / "tasks.jsonl", lines)
    out = tmp_path / "out"
    argv = [command, "--dataset", str(tmp_path / "tasks.jsonl"), "--llm-base-url", base_url,
            "--log-dir" if command == "bench" else "--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "dataset line 2: task 'listed': ground_truth must be a string" in err
    assert handler.requests_seen == []
    assert not out.exists()


def test_a_one_element_ground_truth_list_reads_as_its_string(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(orchestrator, "_utc_now", lambda: "2024-01-01T00:00:00+00:00")
    outputs = []
    for name, truth in (("plain", TRUTH), ("listed", [TRUTH])):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        lines = dataset_lines()
        del lines[0]["script"]  # scripted from the truth
        for line in lines:
            line["ground_truth"] = truth
        write_dataset(work / "tasks.jsonl", lines)
        assert run_cli("bench", "--dataset", "tasks.jsonl", "--log-dir", "logs") == 0
        files = {p.name: p.read_bytes() for p in sorted((work / "logs").iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert len(outputs[0][1]) == 12
    assert outputs[0] == outputs[1]


def _strip_ts(path: Path) -> list[str]:
    out = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        event.pop("ts", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def test_bench_rerun_is_deterministic(tmp_path):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(dir_a)) == 0
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(dir_b)) == 0
    assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()
    assert (dir_a / "summary.json").read_bytes() == (dir_b / "summary.json").read_bytes()
    for name in sorted(p.name for p in dir_a.glob("*.jsonl")):
        assert _strip_ts(dir_a / name) == _strip_ts(dir_b / name)


# -- classify ---------------------------------------------------------------------

def test_classify_matches_injection_manifest(tmp_path, capsys):
    lines = [
        {"id": "a", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": ['user_login(username="kate", days=3)']},
        {"id": "b", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": ['User_Login(username="kate", days=3)']},
        {"id": "c", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": ['userLogin(username="kate", days="three")']},
        {"id": "d", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": [wrap(TRUTH)]},
        {"id": "e", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": [TRUTH]},
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    out_file = tmp_path / "hist.json"
    code = run_cli(
        "classify", "--dataset", str(dataset), "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_samples"] == 5
    assert payload["counts"] == {"E2.2": 2, "E4.1": 1, "none": 2}
    assert payload["percentages"] == {"E2.2": pytest.approx(66.67), "E4.1": pytest.approx(33.33)}


def test_classify_all_correct(tmp_path):
    lines = [
        {"id": "a", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC), "script": [wrap(TRUTH)]},
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    out_file = tmp_path / "hist.json"
    assert run_cli("classify", "--dataset", str(dataset), "--out", str(out_file)) == 0
    payload = json.loads(out_file.read_text())
    assert payload["counts"] == {"none": 1}


def test_classify_labels_an_int_past_float_range_against_a_float(tmp_path):
    lines = [
        {"id": "a", "instruction": INSTRUCTION,
         "ground_truth": 'userLogin(username="kate", days=3.0)', "doc": str(FIXTURE_DOC),
         "script": [wrap('userLogin(username="kate", days=1' + "0" * 400 + ")")]},
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    out_file = tmp_path / "hist.json"
    assert run_cli("classify", "--dataset", str(dataset), "--out", str(out_file)) == 0
    assert json.loads(out_file.read_text())["counts"] == {"E4.other": 1}


def test_classify_out_onto_a_directory_exits_2(tmp_path, capsys):
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, dataset_lines(1, 0))
    assert run_cli("classify", "--dataset", str(dataset), "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["counts"] == {"none": 1}  # the histogram is printed
    assert captured.err.startswith(f"error: cannot write --out {tmp_path}")


def test_classify_missing_ground_truth_exits_2(tmp_path, capsys):
    lines = [
        {"id": "a", "instruction": INSTRUCTION, "ground_truth": None,
         "doc": str(FIXTURE_DOC), "script": [wrap(TRUTH)]},
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    assert run_cli("classify", "--dataset", str(dataset)) == 2
    assert "ground truth" in capsys.readouterr().err


def test_classify_rejects_any_ground_truth_that_does_not_parse(tmp_path, capsys):
    lines = [
        {"id": "listed", "instruction": INSTRUCTION, "ground_truth": ["f(a="],
         "doc": str(FIXTURE_DOC), "script": [wrap(TRUTH)]},
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    assert run_cli("classify", "--dataset", str(dataset)) == 2
    assert "task 'listed': ground truth does not parse" in capsys.readouterr().err


def test_classify_checks_every_sample_before_any_llm_call(
    tmp_path, capsys, monkeypatch, stub_server
):
    base_url, handler = stub_server
    handler.default_behavior = (200, json.dumps({
        "choices": [{"message": {"content": wrap(TRUTH)}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 5},
    }))
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    lines = [
        {"id": f"s{i}", "instruction": INSTRUCTION, "ground_truth": TRUTH,
         "doc": str(FIXTURE_DOC)}
        for i in range(5)
    ]
    lines.append(dict(lines[0], id="last", ground_truth=None))
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    code = run_cli(
        "classify", "--dataset", str(dataset),
        "--llm-base-url", base_url,
    )
    assert code == 2
    assert "'last' has no ground truth" in capsys.readouterr().err
    assert handler.requests_seen == []


def test_classify_checks_every_truth_api_before_any_llm_call(
    tmp_path, capsys, monkeypatch, stub_server
):
    base_url, handler = stub_server
    handler.default_behavior = (200, json.dumps({
        "choices": [{"message": {"content": wrap(TRUTH)}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 5},
    }))
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    lines = [
        {"id": f"s{i}", "instruction": INSTRUCTION, "ground_truth": truth,
         "doc": str(FIXTURE_DOC)}
        for i, truth in enumerate([TRUTH, "noSuchApi(a=1)", TRUTH])
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    code = run_cli(
        "classify", "--dataset", str(dataset),
        "--llm-base-url", base_url, "--out", str(tmp_path / "hist.json"),
    )
    assert code == 2
    assert "sample 's1': ground-truth API 'noSuchApi'" in capsys.readouterr().err
    assert handler.requests_seen == []
    assert not (tmp_path / "hist.json").exists()


def test_classify_http_asks_the_pipeline_question(
    tmp_path, monkeypatch, stub_server, doc, prepared
):
    base_url, handler = stub_server
    handler.default_behavior = (200, json.dumps({
        "choices": [{"message": {"content": wrap(TRUTH)}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 5},
    }))
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "HttpLlmClient", counted("client", cli.HttpLlmClient))
    # prepare_document renders each distinct doc's system message once.
    monkeypatch.setattr(
        orchestrator, "render_doc_prompt", counted("system", orchestrator.render_doc_prompt)
    )
    instructions = [INSTRUCTION, "Start a session for kate."]
    lines = [
        {"id": f"s{i}", "instruction": text, "ground_truth": TRUTH, "doc": str(FIXTURE_DOC)}
        for i, text in enumerate(instructions)
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    code = run_cli(
        "classify", "--dataset", str(dataset),
        "--llm-base-url", base_url,
        "--out", str(tmp_path / "hist.json"),
    )
    assert code == 0
    assert json.loads((tmp_path / "hist.json").read_text())["counts"] == {"none": 2}
    assert counts == {"client": 1, "system": 1}

    posted = [json.loads(body)["messages"] for _, _, body in handler.requests_seen]
    assert len(posted) == 2
    for text, messages in zip(instructions, posted):
        llm = ScriptedLlm([wrap(TRUTH)])
        run_task(text, prepared, llm, echo_executor(doc), ExactMatchJudge())
        opening = [{"role": m.role, "content": m.content} for m in llm.received_prompts[0]]
        assert messages == opening


def test_classify_asks_the_llm_only_for_samples_without_a_script(
    tmp_path, monkeypatch, stub_server
):
    base_url, handler = stub_server
    handler.default_behavior = _completion(wrap(TRUTH))
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    line = {"ground_truth": TRUTH, "doc": str(FIXTURE_DOC)}
    lines = [
        dict(line, id="wrong", instruction=INSTRUCTION, script=[WRONG_NAME]),
        dict(line, id="asked", instruction="Start a session for kate."),
        dict(line, id="right", instruction=INSTRUCTION, script=[wrap(TRUTH)]),
    ]
    dataset = tmp_path / "labeled.jsonl"
    write_dataset(dataset, lines)
    out = tmp_path / "hist.json"
    code = run_cli(
        "classify", "--dataset", str(dataset), "--llm-base-url", base_url, "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text())["counts"] == {"E2.2": 1, "none": 2}
    [(_, _, body)] = handler.requests_seen
    assert json.loads(body)["messages"][-1]["content"].startswith("Start a session for kate.")


# -- report ---------------------------------------------------------------------

def test_report_lists_unsatisfied_first(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines(2, 1))
    log_dir = tmp_path / "logs"
    run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir))
    capsys.readouterr()
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    out = capsys.readouterr().out
    # zz-bad-0 sorts last alphabetically but must be printed first
    assert out.index("zz-bad-0") < out.index("ok-0")
    assert "UNSATISFIED" in out


def test_report_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_cli("report", "--log-dir", str(empty)) == 0
    assert "no sessions" in capsys.readouterr().out


def test_report_skips_corrupt_lines(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines(1, 0))
    log_dir = tmp_path / "logs"
    run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir))
    log_file = log_dir / "ok-0.jsonl"
    log_file.write_text(log_file.read_text() + "{broken\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    captured = capsys.readouterr()
    assert "skipping" in captured.err
    assert "ok-0" in captured.out


def test_report_skips_lines_that_are_not_objects(tmp_path, capsys):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines(1, 0))
    log_dir = tmp_path / "logs"
    run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir))
    log_file = log_dir / "ok-0.jsonl"
    log_file.write_text(log_file.read_text() + "[1, 2]\n5\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    captured = capsys.readouterr()
    assert "skipping ok-0.jsonl:2" in captured.err
    assert "skipping ok-0.jsonl:3" in captured.err
    assert "static #0: clean" in captured.out


def test_report_skips_events_whose_observation_is_not_an_object(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    event = {"task_id": "a", "phase": "dynamic", "iteration": 0, "observation": "x"}
    (log_dir / "a.jsonl").write_text(
        json.dumps({**event, "observation": {"status": 200}}) + "\n" + json.dumps(event) + "\n",
        encoding="utf-8",
    )
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    captured = capsys.readouterr()
    assert "skipping a.jsonl:2" in captured.err
    assert "dynamic #0: None -> status=200" in captured.out


def test_report_of_a_missing_directory_finds_no_sessions(tmp_path, capsys):
    assert run_cli("report", "--log-dir", str(tmp_path / "none")) == 0
    assert capsys.readouterr().out == f"no sessions under {tmp_path / 'none'}\n"


def test_report_passes_over_blank_lines_and_prints_each_thought(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    reversed_route = 'route_planning(origin="116.4,39.9", dest="121.5,31.2")'
    correct_route = 'route_planning(origin="39.9,116.4", dest="31.2,121.5")'
    code = run_cli(
        "run", "Plan a driving route between two map positions.",
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(reversed_route), "--script", f"Thought: swap.\n{wrap(correct_route)}",
        "--ground-truth", correct_route, "--log-dir", str(log_dir), "--task-id", "r",
    )
    assert code == 0
    log_file = log_dir / "r.jsonl"
    log_file.write_text(log_file.read_text().replace("\n", "\n\n  \n", 1), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "    thought: swap.\n" in captured.out
    assert captured.out.index("static #0") < captured.out.index("dynamic #0")


@pytest.mark.parametrize(
    "summary", [{"tasks": 5}, {"tasks": [5]}, [1]], ids=["tasks-int", "entry-int", "list"]
)
def test_report_warns_on_a_summary_of_the_wrong_shape(tmp_path, capsys, summary):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines(1, 0))
    log_dir = tmp_path / "logs"
    run_cli("bench", "--dataset", str(dataset), "--log-dir", str(log_dir))
    (log_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--log-dir", str(log_dir)) == 0
    captured = capsys.readouterr()
    assert "warning: unreadable summary" in captured.err
    assert "== ok-0 [unknown]" in captured.out


# -- flags --------------------------------------------------------------------------

def test_each_command_registers_only_the_flags_it_reads():
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    counts = {
        name: sum(
            1 for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        )
        for name, parser in sub.choices.items()
    }
    assert counts == {"run": 15, "bench": 13, "classify": 8, "report": 1}
    assert sum(counts.values()) == 37


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--dataset", "d.jsonl", "--max-static", "3"],
        ["report", "--doc", "x"],
        ["bench", "--dataset", "d.jsonl", "--chunk-threshold", "0.3"],
        # A base URL alone selects a remote service, and no flag is
        # abbreviated: "--llm http" must not read as "--llm-base-url http".
        ["run", INSTRUCTION, "--doc", "d.json", "--llm", "http"],
        ["run", INSTRUCTION, "--doc", "d.json", "--executor", "http"],
        ["bench", "--dataset", "d.jsonl", "--llm", "http"],
        ["bench", "--dataset", "d.jsonl", "--executor", "http"],
        ["classify", "--dataset", "d.jsonl", "--llm", "http"],
        # No command reads a settings file: settings come from flags alone.
        ["run", INSTRUCTION, "--doc", "d.json", "--config", "c.json"],
        ["bench", "--dataset", "d.jsonl", "--config", "c.json"],
        ["classify", "--dataset", "d.jsonl", "--config", "c.json"],
        ["report", "--config", "c.json"],
    ],
    ids=[
        "classify-max-static", "report-doc", "bench-chunk-threshold", "run-llm",
        "run-executor", "bench-llm", "bench-executor", "classify-llm", "run-config",
        "bench-config", "classify-config", "report-config",
    ],
)
def test_flag_of_another_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", INSTRUCTION, "--script", "x"], "--doc"),
        (["bench", "--doc", str(FIXTURE_DOC)], "--dataset"),
        (["classify", "--doc", str(FIXTURE_DOC)], "--dataset"),
        (["bench", "--dataset", "d.jsonl", "--k", "many"], "--k"),
        (["bench", "--dataset", "d.jsonl", "--max-static", "2.7"], "--max-static"),
        (["bench", "--dataset", "d.jsonl", "--k", "1" + "0" * 5000], "--k"),
    ],
    ids=[
        "run-no-doc", "bench-no-dataset", "classify-no-dataset", "k-not-int",
        "max-static-float", "k-past-the-digit-limit",
    ],
)
def test_a_missing_input_or_a_value_of_the_wrong_type_exits_2(tmp_path, capsys, argv, flag):
    log_dir = tmp_path / "logs"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--log-dir", str(log_dir))
    assert exc.value.code == 2
    # The usage text lists every flag; the error line names the one at fault.
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert not log_dir.exists()


def test_script_file_must_hold_a_list_of_strings(tmp_path, capsys):
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps(wrap(TRUTH)))
    code = run_cli(
        "run", INSTRUCTION, "--doc", str(FIXTURE_DOC), "--script-file", str(script_file),
        "--log-dir", str(tmp_path / "l"),
    )
    assert code == 2
    assert "list of strings" in capsys.readouterr().err


_LONG_INT = "1" * 5000  # past Python's 4,300-digit limit
_DEEP = "[" * 100_000  # past the recursion limit


def _unreadable_input(tmp_path, case):
    """The argv of a command reading the unreadable file of *case*."""
    target = tmp_path / "input"
    doc, log_dir = str(FIXTURE_DOC), str(tmp_path / "logs")
    if case == "doc-directory":
        target.mkdir()
    elif case == "doc-not-utf8":
        target.write_bytes(b'{"apis": [], "x": "\xff"}')
    elif case.startswith("report"):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, dataset_lines(1, 0))
        run_cli("bench", "--dataset", str(dataset), "--log-dir", log_dir)
        if case == "report-summary":
            (tmp_path / "logs" / "summary.json").write_text(f'{{"n": {_LONG_INT}}}')
        elif case == "report-directory":
            (tmp_path / "logs" / "a.jsonl").mkdir()
        else:
            line = {
                "report-long-int": f"[{_LONG_INT}]".encode(),
                "report-not-utf8": b'"\xff"',
                "report-not-utf8-event": b'{"phase": "static", "feedback": "\xff"}',
            }[case]
            with open(tmp_path / "logs" / "ok-0.jsonl", "ab") as f:
                f.write(line + b"\n")
        return ["report", "--log-dir", log_dir]
    else:
        target.write_text(
            {
                "dataset-long-int": f'{{"id": "a", "instruction": "x", "n": {_LONG_INT}}}',
                "dataset-deep": _DEEP,
                "script-long-int": f"[{_LONG_INT}]",
                "doc-long-int": f'{{"apis": [], "n": {_LONG_INT}}}',
            }[case],
            encoding="utf-8",
        )
    if case.startswith("dataset"):
        return ["bench", "--doc", doc, "--dataset", str(target), "--log-dir", log_dir]
    if case.startswith("script"):
        return ["run", INSTRUCTION, "--doc", doc, "--script-file", str(target),
                "--log-dir", log_dir]
    return ["run", INSTRUCTION, "--doc", str(target), "--script", "x", "--log-dir", log_dir]


@pytest.mark.parametrize(
    "case",
    [
        "dataset-long-int", "dataset-deep", "script-long-int",
        "doc-long-int", "doc-directory", "doc-not-utf8", "report-long-int",
        "report-not-utf8", "report-not-utf8-event", "report-directory", "report-summary",
    ],
)
def test_an_unreadable_input_file_exits_2_or_is_skipped(tmp_path, capsys, case):
    argv = _unreadable_input(tmp_path, case)
    capsys.readouterr()
    if case.startswith("report"):
        assert run_cli(*argv) == 0
        assert "warning: " in capsys.readouterr().err
    else:
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "logs").exists()


# -- settings and inputs a command cannot use ---------------------------------------

_NO_SCRIPT = {"id": "a", "instruction": INSTRUCTION, "ground_truth": TRUTH}


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({}, ["run", "x", "--doc", str(FIXTURE_DOC), "--script", "x", "--threshold", "1.5"],
         "invalid pipeline settings: threshold must be in (0, 1)"),
        ({}, ["run", "x", "--doc", str(FIXTURE_DOC), "--script", "x", "--threshold", "1e400"],
         "invalid pipeline settings: threshold must be in (0, 1)"),
        ({}, ["run", "x", "--doc", str(FIXTURE_DOC), "--script", "x", "--k", "0"],
         "invalid pipeline settings: k must be >= 1"),
        ({}, ["run", "x", "--doc", str(FIXTURE_DOC), "--script", "x", "--max-static", "-1"],
         "invalid pipeline settings: budgets must be >= 0"),
        ({}, ["run", "x", "--doc", str(FIXTURE_DOC)],
         "scripted LLM needs --script or --script-file"),
        ({"d.jsonl": json.dumps({**_NO_SCRIPT, "doc": "missing.json"})},
         ["bench", "--dataset", "{tmp}/d.jsonl"], "dataset line 1: cannot load doc missing.json"),
        ({"d.jsonl": "\n" + json.dumps(_NO_SCRIPT)}, ["bench", "--dataset", "{tmp}/d.jsonl"],
         "dataset line 2: no doc given and no --doc"),
        ({"d.jsonl": "\n  \n\n"}, ["bench", "--doc", str(FIXTURE_DOC), "--dataset", "{tmp}/d.jsonl"],
         "dataset {tmp}/d.jsonl holds no tasks"),
    ],
    ids=[
        "threshold-1.5", "threshold-1e400", "k-0", "max-static--1", "run-no-script",
        "dataset-doc-unloadable", "dataset-no-doc", "dataset-blank",
    ],
)
def test_an_unusable_setting_or_input_exits_2(tmp_path, capsys, files, argv, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    log_dir = tmp_path / "logs"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(*argv, "--log-dir", str(log_dir)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(tmp=tmp_path)}")
    assert not log_dir.exists()


def test_classify_sample_without_script_or_llm_exits_2(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_dataset(dataset, [{**_NO_SCRIPT, "doc": str(FIXTURE_DOC)}])
    assert run_cli("classify", "--dataset", str(dataset)) == 2
    assert "dataset sample 'a' has no recorded output (script)" in capsys.readouterr().err


def test_a_dataset_line_without_doc_uses_the_base_doc(tmp_path):
    dataset = tmp_path / "d.jsonl"
    write_dataset(dataset, [{**_NO_SCRIPT, "script": [wrap(TRUTH)]}])
    log_dir = tmp_path / "logs"
    code = run_cli("bench", "--doc", str(FIXTURE_DOC), "--dataset", str(dataset),
                   "--log-dir", str(log_dir))
    assert code == 0
    assert json.loads((log_dir / "summary.json").read_text())["tasks"][0]["satisfied"]


def test_a_relative_dataset_doc_is_read_from_the_dataset_directory(
    tmp_path, monkeypatch
):
    data_dir, elsewhere = tmp_path / "data", tmp_path / "elsewhere"
    data_dir.mkdir()
    elsewhere.mkdir()
    (data_dir / "api.json").write_bytes(FIXTURE_DOC.read_bytes())
    write_dataset(data_dir / "d.jsonl", [{**_NO_SCRIPT, "doc": "api.json", "script": [wrap(TRUTH)]}])
    monkeypatch.chdir(elsewhere)
    code = run_cli("bench", "--dataset", str(data_dir / "d.jsonl"),
                   "--log-dir", str(tmp_path / "logs"))
    assert code == 0
    assert json.loads((tmp_path / "logs" / "summary.json").read_text())["tasks"][0]["satisfied"]


# -- defaults -----------------------------------------------------------------------

@pytest.mark.parametrize("flags, calls", [([], 4), (["--max-static", "1"], 2)],
                         ids=["default", "flag"])
def test_max_static_takes_its_flag_or_its_default(tmp_path, flags, calls):
    # An unparseable reply spends the whole static budget: the first call
    # plus one per retry.
    code = run_cli(
        "run", INSTRUCTION, "--doc", str(FIXTURE_DOC), *flags,
        "--script", "never a call", "--log-dir", str(tmp_path / "logs"), "--task-id", "t",
    )
    assert code == 1
    summary = json.loads((tmp_path / "logs" / "summary.json").read_text())
    assert summary["tasks"][0]["llm_calls"] == calls


def test_http_llm_without_key_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AUTOFEEDBACK_LLM_KEY", raising=False)
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--llm-base-url", "http://127.0.0.1:9",
        "--log-dir", str(tmp_path),
    )
    assert code == 2
    assert "AUTOFEEDBACK_LLM_KEY" in capsys.readouterr().err


def test_run_with_http_llm_stub(tmp_path, monkeypatch, stub_server):
    base_url, handler = stub_server
    handler.behaviors.append(
        (200, json.dumps({
            "choices": [{"message": {"content": wrap(TRUTH)}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 5},
        }))
    )
    monkeypatch.setenv("AUTOFEEDBACK_LLM_KEY", "k")
    code = run_cli(
        "run", INSTRUCTION,
        "--doc", str(FIXTURE_DOC),
        "--llm-base-url", base_url,
        "--ground-truth", TRUTH,
        "--log-dir", str(tmp_path),
    )
    assert code == 0
    assert handler.requests_seen[0][1] == "/chat/completions"


def test_run_with_http_executor_stub(tmp_path, stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (200, '{"session": "ok"}')
    code = run_cli(
        "run", "Log a user into the system and start a session.",
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(TRUTH),
        "--executor-base-url", base_url,
        "--log-dir", str(tmp_path),
        "--task-id", "hx",
    )
    assert code == 0
    methods_paths = [(m, p) for m, p, _ in handler.requests_seen]
    assert ("POST", "/userLogin") in methods_paths


def _letter_vector(text: str) -> list[float]:
    counts = [0.0] * 26
    for word in text.lower().split():
        if word and "a" <= word[0] <= "z":
            counts[ord(word[0]) - ord("a")] += 1.0
    return counts


def test_run_with_remote_embedder_stub(tmp_path, stub_server):
    base_url, handler = stub_server

    def embed_behavior(path, body):
        text = json.loads(body)["input"][0]
        return 200, json.dumps({"data": [{"embedding": _letter_vector(text)}]})

    handler.default_behavior = embed_behavior
    code = run_cli(
        "run", "Log a user into the system and start a session.",
        "--doc", str(FIXTURE_DOC),
        "--script", wrap(TRUTH),
        "--ground-truth", TRUTH,
        "--embedder-base-url", base_url,
        "--log-dir", str(tmp_path),
        "--task-id", "emb",
    )
    assert code == 0
    embed_calls = [r for r in handler.requests_seen if r[1] == "/embeddings"]
    assert embed_calls, "the remote embedder was never consulted"
