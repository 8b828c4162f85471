import json
import os
import threading

import pytest
from hypothesis import given, strategies as st

from colmatch.rerank_llm import (
    HttpLlmClient,
    LlmConfig,
    LlmParseError,
    LlmTransportError,
    RecordingLlmClient,
    ReplayLlmClient,
    ask_each,
    build_prompt,
    parse_response,
    rerank_llm,
)
from colmatch.retrieval import MatchCandidate, MatchList

from stubs import JsonStubServer


def _matches(per_source, k=20):
    built = {}
    for src, pairs in per_source.items():
        built[src] = [
            MatchCandidate(src, tgt, score, rank)
            for rank, (tgt, score) in enumerate(pairs, start=1)
        ]
    return MatchList("s", "t", built, k)


def _order(matches, src):
    return [c.target for c in matches.candidates(src)]


class FakeClient:
    """Scripted client: pops the next scripted reply (str or Exception)."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        reply = self.replies.pop(0) if self.replies else self.replies_exhausted()
        if isinstance(reply, Exception):
            raise reply
        return reply

    @staticmethod
    def replies_exhausted():
        raise AssertionError("client called more often than scripted")


class TestBuildPrompt:
    def test_block_order_and_one_shot(self):
        prompt = build_prompt(("age", ["34"]), [("age_at_index", ["34", "67"])])
        blocks = prompt.split("\n\n")
        assert len(blocks) == 4
        assert blocks[0].startswith("From a score of 0.00 to 1.00")
        assert "WorkerID(0.95); EmpCode(0.30); StaffName(0.05)" in blocks[1]
        assert blocks[1].startswith("Example:\nCandidate Column:\n")
        assert blocks[2].startswith("Provide the name of each target column")
        assert blocks[3] == (
            "Source Column:\n"
            "Column: age, Sample values: [34]\n"
            "Target Columns:\n"
            "Column: age_at_index, Sample values: [34, 67]\n"
            "Response:"
        )

    def test_single_candidate_single_line(self):
        prompt = build_prompt(("a", []), [("b", ["1"])])
        input_block = prompt.split("\n\n")[3]
        lines = input_block.splitlines()
        target_lines = lines[lines.index("Target Columns:") + 1 : -1]
        assert target_lines == ["Column: b, Sample values: [1]"]

    def test_empty_sample_renders_empty_brackets(self):
        prompt = build_prompt(("a", []), [("b", [])])
        assert "Column: a, Sample values: []" in prompt
        assert "Column: b, Sample values: []" in prompt

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(("a", []), [])


class TestParseResponse:
    def test_example_response(self):
        out = parse_response("WorkerID(0.95); EmpCode(0.30); StaffName(0.05)")
        assert out == [("WorkerID", 0.95), ("EmpCode", 0.30), ("StaffName", 0.05)]

    def test_resorted_descending(self):
        assert parse_response("A(0.2); B(0.9)") == [("B", 0.9), ("A", 0.2)]

    def test_ties_keep_input_order(self):
        assert parse_response("B(0.5); A(0.5)") == [("B", 0.5), ("A", 0.5)]

    def test_garbage_fails(self):
        with pytest.raises(LlmParseError):
            parse_response("garbage")

    def test_empty_fails(self):
        with pytest.raises(LlmParseError):
            parse_response("")
        with pytest.raises(LlmParseError):
            parse_response("   \n")

    def test_trailing_semicolon_fails(self):
        with pytest.raises(LlmParseError):
            parse_response("A(0.5);")

    def test_three_fraction_digits_fail(self):
        with pytest.raises(LlmParseError):
            parse_response("A(0.955)")

    def test_scores_clamped(self):
        assert parse_response("A(1.50)") == [("A", 1.0)]
        assert parse_response("A(2)") == [("A", 1.0)]

    def test_names_trimmed_and_multiline_ok(self):
        out = parse_response("  Worker ID (0.95);\n Emp-Code(0.30)")
        assert out == [("Worker ID", 0.95), ("Emp-Code", 0.30)]

    def test_extra_text_after_entry_fails(self):
        with pytest.raises(LlmParseError):
            parse_response("A(0.5) and more")

    def test_names_may_hold_parentheses(self):
        out = parse_response("weight (kg)(0.90); amount ($) (0.40);score (2)(0.75)")
        assert out == [("weight (kg)", 0.90), ("score (2)", 0.75), ("amount ($)", 0.40)]

    def test_names_with_parentheses_are_reranked(self):
        matches = _matches({"a": [("weight (kg)", 0.9), ("amount ($)", 0.8), ("score (2)", 0.7)]})
        client = FakeClient(["score (2)(0.90); amount ($)(0.80); weight (kg)(0.70)"])
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        assert _order(out, "a") == ["score (2)", "amount ($)", "weight (kg)"]
        assert len(client.prompts) == 1


class TestRerankLlm:
    def test_model_order_applied(self):
        matches = _matches({"a": [("x", 0.9), ("y", 0.8), ("z", 0.7)]})
        client = FakeClient(["z(0.90); y(0.50); x(0.10)"])
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        assert _order(out, "a") == ["z", "y", "x"]
        assert [c.score for c in out.candidates("a")] == [0.90, 0.50, 0.10]
        assert [c.rank for c in out.candidates("a")] == [1, 2, 3]

    def test_leftover_rescale_example(self):
        # sent prefix scored with s_min 0.4; leftovers 0.8 and 0.4
        matches = _matches(
            {"a": [("p", 0.95), ("q", 0.9), ("r", 0.8), ("s", 0.4)]}
        )
        client = FakeClient(["p(0.90); q(0.40)"])
        out = rerank_llm(matches, {"a": []}, {}, n_send=2, client=client)
        scores = {c.target: c.score for c in out.candidates("a")}
        assert scores["p"] == 0.90
        assert scores["q"] == 0.40
        assert scores["r"] == pytest.approx(0.4, rel=1e-6)
        assert scores["s"] == pytest.approx(0.2, rel=1e-6)
        assert scores["r"] < 0.4

    def test_leftovers_already_below_smin_unchanged(self):
        matches = _matches({"a": [("p", 0.9), ("q", 0.2)]})
        client = FakeClient(["p(0.70)"])
        out = rerank_llm(matches, {"a": []}, {}, n_send=1, client=client)
        scores = {c.target: c.score for c in out.candidates("a")}
        assert scores == {"p": 0.70, "q": 0.2}

    def test_full_fallback_after_three_failures(self):
        matches = _matches({"a": [("x", 0.9), ("y", 0.8)]})
        client = FakeClient(
            [
                LlmTransportError("down"),
                "garbage",
                LlmTransportError("down again"),
            ]
        )
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        assert [(c.target, c.score, c.rank) for c in out.candidates("a")] == [
            ("x", 0.9, 1),
            ("y", 0.8, 2),
        ]
        assert len(client.prompts) == 3

    def test_retry_then_success(self):
        matches = _matches({"a": [("x", 0.9), ("y", 0.8)]})
        client = FakeClient(["nonsense", "y(0.80); x(0.20)"])
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        assert _order(out, "a") == ["y", "x"]
        assert len(client.prompts) == 2

    def test_unknown_names_ignored_omitted_become_leftovers(self):
        matches = _matches({"a": [("x", 0.9), ("y", 0.85), ("z", 0.5)]})
        client = FakeClient(["x(0.80); mystery(0.99)"])
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        cands = out.candidates("a")
        assert cands[0].target == "x" and cands[0].score == 0.80
        assert {c.target for c in cands} == {"x", "y", "z"}
        # omitted y, z act as leftovers; max (0.85) lines up under s_min 0.8
        scores = {c.target: c.score for c in cands}
        assert scores["y"] == pytest.approx(0.8, rel=1e-6)
        assert scores["y"] < 0.8
        assert scores["z"] == pytest.approx(0.8 * 0.5 / 0.85, rel=1e-6)

    def test_candidate_set_never_changes(self):
        matches = _matches({"a": [("x", 0.9), ("y", 0.8)]})
        client = FakeClient(["x(0.50)"])
        out = rerank_llm(matches, {"a": []}, {}, client=client)
        assert {c.target for c in out.candidates("a")} == {"x", "y"}

    def test_reverse_echo_reverses_sent_prefix(self):
        matches = _matches(
            {"a": [(t, 0.9 - 0.1 * i) for i, t in enumerate("pqrst")]}
        )

        class ReverseEcho:
            def complete(self, prompt):
                input_block = prompt.split("\n\n")[3]
                names = [
                    line.split(",")[0][len("Column: ") :]
                    for line in input_block.splitlines()
                    if line.startswith("Column: ")
                ][1:]  # first rendered column is the source
                entries = [
                    f"{name}({0.99 - 0.01 * i:.2f})"
                    for i, name in enumerate(reversed(names))
                ]
                return "; ".join(entries)

        out = rerank_llm(matches, {"a": []}, {}, n_send=3, client=ReverseEcho())
        assert _order(out, "a")[:3] == ["r", "q", "p"]

    def test_multiple_sources_merged_by_source(self):
        per_source = {f"s{i}": [("x", 0.9), ("y", 0.1)] for i in range(8)}
        matches = _matches(per_source)

        class FlipClient:
            def complete(self, prompt):
                return "y(0.90); x(0.10)"

        out = rerank_llm(matches, {}, {}, client=FlipClient())
        assert list(out.per_source) == [f"s{i}" for i in range(8)]
        for src in per_source:
            assert _order(out, src) == ["y", "x"]

    def test_zero_model_score_keeps_leftovers_ordered_below_it(self):
        matches = _matches({"a": [("t2", 0.6), ("t1", 0.5), ("t3", 0.4)]})
        client = FakeClient(["t1(0.00)"])
        out = rerank_llm(matches, {"a": []}, {}, n_send=2, client=client)
        cands = out.candidates("a")
        assert _order(out, "a") == ["t1", "t2", "t3"]
        assert cands[0].score == 0.0
        assert 0.0 > cands[1].score > cands[2].score

    def test_tiny_leftovers_stay_apart_below_a_zero_model_score(self):
        matches = _matches({"a": [("p", 1.0), ("t2", 1e-300), ("t0", 0.0)]})
        client = FakeClient(["p(0.00)"])
        out = rerank_llm(matches, {"a": []}, {}, n_send=1, client=client)
        cands = out.candidates("a")
        assert _order(out, "a") == ["p", "t2", "t0"]
        assert 0.0 > cands[1].score > cands[2].score


@given(
    retrieval=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
    model=st.lists(st.integers(0, 100), min_size=1, max_size=8),
    n_send=st.integers(1, 8),
)
def test_leftovers_keep_retrieval_order_strictly_below_model_scores(retrieval, model, n_send):
    names = [f"t{i}" for i in range(len(retrieval))]
    retrieved = sorted(zip(names, retrieval), key=lambda p: (-p[1], p[0]))
    sent = [name for name, _ in retrieved[:n_send]]
    scored = list(zip(sent, (m / 100 for m in model)))  # 0.00..1.00, some sent names omitted
    reply = "; ".join(f"{name}({score:.2f})" for name, score in scored)
    client = FakeClient([reply])
    out = rerank_llm(_matches({"a": retrieved}), {"a": []}, {}, n_send=n_send, client=client)
    cands = out.candidates("a")
    assert [c.rank for c in cands] == list(range(1, len(cands) + 1))
    assert sorted(c.target for c in cands) == sorted(names)
    head = len(scored)
    assert [(c.target, c.score) for c in cands[:head]] == sorted(scored, key=lambda p: -p[1])
    leftovers = cands[head:]
    scored_names = {name for name, _ in scored}
    assert [c.target for c in leftovers] == [n for n, _ in retrieved if n not in scored_names]
    lowest = min(score for _, score in scored)
    assert all(c.score < lowest for c in leftovers)
    assert all(a.score >= b.score for a, b in zip(leftovers, leftovers[1:]))
    retrieval_score = dict(retrieved)
    for a, b in zip(leftovers, leftovers[1:]):
        if retrieval_score[a.target] > retrieval_score[b.target]:
            assert a.score > b.score


class TestLlmConfig:
    def test_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            LlmConfig(endpoint="")

    def test_temperature_nonnegative(self):
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_temperature_finite(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            LlmConfig(endpoint="http://x", temperature=temperature)


class TestHttpClient:
    def test_wire_format_and_api_key(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sekret")

        def handler(path, body):
            return 200, {
                "choices": [{"message": {"content": "A(0.50)"}}]
            }

        with JsonStubServer(handler) as server:
            client = HttpLlmClient(LlmConfig(endpoint=server.url, model="m1"))
            out = client.complete("hello prompt")
            assert out == "A(0.50)"
            path, body, headers = server.requests[0]
            assert body["model"] == "m1"
            assert body["temperature"] == 0.0
            assert body["messages"] == [{"role": "user", "content": "hello prompt"}]
            assert headers.get("Authorization") == "Bearer sekret"

    def test_no_auth_header_without_key(self, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)

        def handler(path, body):
            return 200, {"choices": [{"message": {"content": "A(0.50)"}}]}

        with JsonStubServer(handler) as server:
            client = HttpLlmClient(LlmConfig(endpoint=server.url))
            client.complete("p")
            _, _, headers = server.requests[0]
            assert "Authorization" not in headers

    def test_http_error_is_transport_error(self):
        def handler(path, body):
            return 503, {"error": "overloaded"}

        with JsonStubServer(handler) as server:
            client = HttpLlmClient(LlmConfig(endpoint=server.url))
            with pytest.raises(LlmTransportError):
                client.complete("p")

    def test_malformed_envelope_is_transport_error(self):
        def handler(path, body):
            return 200, {"unexpected": True}

        with JsonStubServer(handler) as server:
            client = HttpLlmClient(LlmConfig(endpoint=server.url))
            with pytest.raises(LlmTransportError):
                client.complete("p")


class TestReplayAndRecording:
    def test_record_then_replay(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        recorded = RecordingLlmClient(FakeClient(["A(0.90)", "B(0.10)"]), transcript)
        assert recorded.complete("p1") == "A(0.90)"
        assert recorded.complete("p2") == "B(0.10)"

        replay = ReplayLlmClient(transcript)
        assert replay.complete("p1") == "A(0.90)"
        assert replay.complete("p2") == "B(0.10)"
        with pytest.raises(LlmTransportError):
            replay.complete("never seen")

    def test_repeated_prompts_replay_in_order(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        lines = [
            {"prompt": "p", "response": "first"},
            {"prompt": "p", "response": "second"},
        ]
        transcript.write_text(
            "\n".join(json.dumps(r) for r in lines) + "\n", encoding="utf-8"
        )
        replay = ReplayLlmClient(transcript)
        assert replay.complete("p") == "first"
        assert replay.complete("p") == "second"
        assert replay.complete("p") == "second"  # exhausted: last one repeats

    def test_replay_ignores_a_torn_last_line(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            json.dumps({"prompt": "a", "response": "A(0.90)"}) + '\n{"prompt": "b", "resp',
            encoding="utf-8",
        )
        replay = ReplayLlmClient(transcript)
        assert replay.complete("a") == "A(0.90)"
        with pytest.raises(LlmTransportError):
            replay.complete("b")

    def test_recording_cuts_a_torn_tail_before_appending(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        intact = json.dumps({"prompt": "a", "response": "A(0.90)"}) + "\n"
        transcript.write_text(intact + '{"prompt": "b", "resp', encoding="utf-8")
        recorded = RecordingLlmClient(FakeClient(["B(0.10)"]), transcript)
        recorded.complete("b")
        record = json.dumps({"prompt": "b", "response": "B(0.10)"}) + "\n"
        assert transcript.read_text(encoding="utf-8") == intact + record
        replay = ReplayLlmClient(transcript)
        assert replay.complete("a") == "A(0.90)"
        assert replay.complete("b") == "B(0.10)"

    def test_missing_replay_file_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayLlmClient(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "first, fault",
        [
            ('{"prompt": ["a"], "response": "A(0.90)"}', "must hold"),
            ('{"response": "A(0.90)"}', "must hold"),
            ('{"prompt": "a", "response": 1}', "must hold"),
            ('["a", "A(0.90)"]', "must hold"),
            ('{"prompt": "a",', "Expecting"),
        ],
        ids=["list-prompt", "no-prompt", "number-response", "not-an-object", "malformed"],
    )
    def test_bad_line_before_the_last_names_the_path_and_line(self, tmp_path, first, fault):
        transcript = tmp_path / "t.jsonl"
        intact = json.dumps({"prompt": "b", "response": "B(0.10)"})
        transcript.write_text(f"{intact}\n{first}\n{intact}\n", encoding="utf-8")
        for client in (ReplayLlmClient, lambda path: RecordingLlmClient(FakeClient([]), path)):
            with pytest.raises(ValueError) as raised:
                client(transcript)
            assert str(raised.value).startswith(f"{transcript}:2: ") and fault in str(raised.value)

    @pytest.mark.parametrize(
        "last, fault",
        [
            ('{"prompt": ["a"], "response": "A(0.90)"}', "must hold"),
            ('{"prompt": "a", "response": 1}', "must hold"),
            ('{"prompt": "a",', "Expecting"),
        ],
        ids=["list-prompt", "number-response", "malformed"],
    )
    def test_bad_last_line_names_the_path_and_line(self, tmp_path, last, fault):
        transcript = tmp_path / "t.jsonl"
        content = json.dumps({"prompt": "b", "response": "B(0.10)"}) + f"\n{last}\n"
        transcript.write_text(content, encoding="utf-8")
        for client in (ReplayLlmClient, lambda path: RecordingLlmClient(FakeClient([]), path)):
            with pytest.raises(ValueError) as raised:
                client(transcript)
            assert str(raised.value).startswith(f"{transcript}:2: ") and fault in str(raised.value)
        assert transcript.read_text(encoding="utf-8") == content

    def test_json_error_position_falls_within_the_line_it_names(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        intact = json.dumps({"prompt": "b", "response": "B(0.10)"})
        transcript.write_text(f'{{"prompt": "a",\n{intact}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"t\.jsonl:1: .*: line 1 column 16 \(char 15\)$"):
            ReplayLlmClient(transcript)

    def test_transcript_with_a_byte_order_mark_replays_its_one_line(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        line = json.dumps({"prompt": "a", "response": "A(0.90)"}) + "\n"
        transcript.write_bytes(b"\xef\xbb\xbf" + line.encode("utf-8"))
        assert ReplayLlmClient(transcript).complete("a") == "A(0.90)"
        RecordingLlmClient(FakeClient(["B(0.10)"]), transcript).complete("b")
        replay = ReplayLlmClient(transcript)
        assert (replay.complete("a"), replay.complete("b")) == ("A(0.90)", "B(0.10)")


class TestAskEach:
    def test_answers_come_in_prompt_order_when_the_client_answers_out_of_order(self):
        second_answered = threading.Event()
        answered = []

        class SecondFirstClient:
            def complete(self, prompt):
                if prompt == "first":
                    assert second_answered.wait(5), "the second prompt was never sent"
                answered.append(prompt)
                if prompt == "second":
                    second_answered.set()
                return f"answer to {prompt}"

        answers = ask_each(SecondFirstClient(), {"a": "first", "b": "second"}, str.upper, 2)
        assert answered == ["second", "first"]
        assert answers == ["ANSWER TO FIRST", "ANSWER TO SECOND"]

    @pytest.mark.parametrize("width", [0, -3])
    def test_a_width_below_one_is_refused(self, width):
        client = FakeClient([])
        with pytest.raises(ValueError, match="max_concurrent must be >= 1"):
            ask_each(client, {"a": "p"}, parse_response, width)
        with pytest.raises(ValueError, match="max_concurrent must be >= 1"):
            ask_each(client, {}, parse_response, width)
        assert client.prompts == []

    def test_failed_prompts_answer_none(self):
        client = FakeClient([LlmTransportError("down")] * 3 + ["x(0.5)"])
        answers = ask_each(client, {"a": "p", "b": "q"}, parse_response, 1)
        assert answers == [None, [("x", 0.5)]]
