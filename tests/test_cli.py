import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from colmatch import embedding
from colmatch.ablation import load_grid
from colmatch.augmentation import load_classes
from colmatch.cli import EPILOG, build_parser, main, resolve_config
from colmatch.embedding import hash_embed
from colmatch.finetune import load_head
from colmatch.rerank_llm import RecordingLlmClient
from colmatch.pipeline import PipelineConfig, run_pipeline
from colmatch.tables import load_table

from helpers import ScriptedLlmClient, identity_pair, write_csv
from stubs import JsonStubServer


def chat_handler(path, body):
    """A chat-completion endpoint answering every prompt like ScriptedLlmClient."""
    content = ScriptedLlmClient().complete(body["messages"][0]["content"])
    return 200, {"choices": [{"message": {"content": content}}]}


def write_config(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def nested(keys, value):
    """{"a": {"b": value}} for keys ("a", "b")."""
    return functools.reduce(lambda node, key: {key: node}, reversed(keys), value)


# integer settings read from a config file, by their path in the file
CONFIG_INTEGERS = [
    ("sampling", "sample_size"),
    ("sampling", "seed"),
    ("serialization", "repeat_count"),
    ("llm_top_k",),
    ("provider", "dimension"),
    ("provider", "batch_size"),
]


# config-file values for an integer setting that are not integers, with their
# test-id suffixes; "many" keeps the ids the tests had before the others
NOT_INTEGERS = [("many", ""), (True, "-true"), (2.9, "-2.9"), (float("inf"), "-inf"), (float("nan"), "-nan")]


ALL_FLAGS = [
    "--sampling",
    "--sample-size",
    "--seed",
    "--serialization",
    "--repeat-k",
    "--reranker",
    "--llm-endpoint",
    "--llm-model",
    "--llm-top-k",
    "--report",
    "--grid",
    "--out",
    "--preset",
    "--config",
    "--replay",
    "--classes",
    "--projection",
    "--no-llm",
    "--epochs",
]


@pytest.fixture
def pair(tmp_path):
    return identity_pair(tmp_path, n_cols=4, n_rows=20)


# projection files that load_head must refuse: (header, weights, what the error says)
HEAD = {"dimension": 256, "seed": 0, "score": 1.0}
EYE = np.eye(256)
MALFORMED_HEADS = [
    pytest.param([1, 2], EYE, "header must be a JSON object", id="header-not-object"),
    pytest.param({"seed": 0, "score": 1.0}, EYE, "dimension must be an integer, got None", id="no-dimension"),
    pytest.param({**HEAD, "dimension": "256"}, EYE, "dimension must be an integer", id="dimension-string"),
    pytest.param({**HEAD, "seed": 0.5}, EYE, "seed must be an integer", id="seed-float"),
    pytest.param({**HEAD, "dimension": 0}, np.eye(0), "dimension must be >= 1, got 0", id="dimension-0"),
    pytest.param({**HEAD, "score": float("nan")}, EYE, "score must be a finite number", id="score-nan"),
    pytest.param({**HEAD, "score": "high"}, EYE, "score must be a finite number", id="score-string"),
    pytest.param(HEAD, np.full((256, 256), np.nan), "weights must be finite", id="nan-weights"),
]


class TestHelp:
    def test_top_level_help_enumerates_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ALL_FLAGS:
            assert flag in text, flag

    def test_epilog_is_the_flag_inventory(self):
        for flag in ALL_FLAGS:
            assert flag in EPILOG

    def test_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("match", "evaluate", "augment", "finetune", "ablate"):
            assert command in text


class TestMatch:
    def test_writes_json_and_csv(self, tmp_path, pair, capsys):
        source, target, _ = pair
        out = tmp_path / "m"
        code = main(["match", str(source), str(target), "--out", str(out)])
        assert code == 0
        assert out.with_suffix(".json").exists()
        assert out.with_suffix(".csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_identity_pair_self_matches_at_rank_one(self, tmp_path, pair):
        source, target, _ = pair
        out = tmp_path / "m"
        main(["match", str(source), str(target), "--out", str(out), "--reranker", "bipartite"])
        payload = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert payload["source_table"] == "source"
        by_source = {}
        for entry in payload["matches"]:
            by_source.setdefault(entry["source"], []).append(entry)
        for i in range(4):
            top = by_source[f"Col {i}"][0]
            assert top["target"] == f"col_{i}"
            assert top["rank"] == 1
            assert top["score"] == 1.0

    def test_llm_reranker_without_endpoint_exits_one(self, tmp_path, pair, capsys):
        source, target, _ = pair
        code = main(
            ["match", str(source), str(target), "--reranker", "llm", "--out", str(tmp_path / "m")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "llm endpoint required" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("header,weights,problem", MALFORMED_HEADS)
    def test_malformed_projection_file_exits_one(self, tmp_path, pair, capsys, header, weights, problem):
        source, target, _ = pair
        head = tmp_path / "h.bin"
        head.write_bytes((json.dumps(header) + "\n").encode("ascii") + weights.astype("<f4").tobytes())
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--projection", str(head), "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: projection file {head}: {problem}")
        assert err.endswith("\n") and err.count("\n") == 1

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main(["match", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_provider_failure_exits_two(self, tmp_path, pair, monkeypatch, capsys):
        monkeypatch.setattr(embedding.time, "sleep", lambda _s: None)
        source, target, _ = pair
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"provider": {"kind": "remote", "endpoint": "http://127.0.0.1:1/embed"}}),
            encoding="utf-8",
        )
        code = main(
            [
                "match",
                str(source),
                str(target),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "m"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_replay_reproduces_live_llm_run(self, tmp_path, pair):
        source_path, target_path, _ = pair
        transcript = tmp_path / "transcript.jsonl"
        source = load_table(source_path)
        target = load_table(target_path)
        # record a live run against the scripted client, using CLI defaults
        recording = RecordingLlmClient(ScriptedLlmClient(), transcript)
        from colmatch.rerank_llm import LlmConfig

        live = run_pipeline(
            source,
            target,
            PipelineConfig(reranker="llm", llm=LlmConfig(endpoint="http://x.invalid/v1")),
            llm_client=recording,
        )
        out = tmp_path / "m"
        code = main(
            [
                "match",
                str(source_path),
                str(target_path),
                "--reranker",
                "llm",
                "--replay",
                str(transcript),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        flat = [(m["source"], m["target"], m["score"], m["rank"]) for m in payload["matches"]]
        expected = [(c.source, c.target, c.score, c.rank) for c in live.flat()]
        assert flat == expected


class TestRecord:
    def test_record_sends_the_flag_model_and_the_file_temperature(self, tmp_path, pair):
        source, target, _ = pair
        transcript = tmp_path / "t.jsonl"
        config = write_config(tmp_path / "cfg.json", {"llm": {"temperature": 0.3}})
        with JsonStubServer(chat_handler) as server:
            code = main(
                ["match", str(source), str(target), "--out", str(tmp_path / "m"),
                 "--reranker", "llm", "--config", config, "--llm-endpoint", server.url,
                 "--llm-model", "m-big", "--record", str(transcript)]
            )
            bodies = [body for _, body, _ in server.requests]
        assert code == 0
        assert len(bodies) == 4
        assert {(b["model"], b["temperature"]) for b in bodies} == {("m-big", 0.3)}
        assert len(transcript.read_text(encoding="utf-8").splitlines()) == 4

    def test_record_with_the_endpoint_in_the_config_file(self, tmp_path, pair):
        source, target, _ = pair
        transcript = tmp_path / "t.jsonl"
        with JsonStubServer(chat_handler) as server:
            config = write_config(tmp_path / "cfg.json", {"llm": {"endpoint": server.url}})
            code = main(
                ["match", str(source), str(target), "--out", str(tmp_path / "m"),
                 "--reranker", "llm", "--config", config, "--record", str(transcript)]
            )
        assert code == 0
        records = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 4
        assert all(r["response"].startswith("col_") for r in records)


class TestEvaluate:
    def test_identity_report(self, tmp_path, pair, capsys):
        source, target, gt = pair
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                str(source),
                str(target),
                str(gt),
                "--report",
                str(report_path),
                "--reranker",
                "bipartite",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["mrr"] == 1.0
        assert payload["recall_at_gt"] == 1.0
        assert payload["config"]["reranker"] == "bipartite"

    def test_config_echo_includes_all_stages(self, tmp_path, pair):
        source, target, gt = pair
        report_path = tmp_path / "report.json"
        main(
            [
                "evaluate",
                str(source),
                str(target),
                str(gt),
                "--report",
                str(report_path),
                "--sampling",
                "frequency",
                "--serialization",
                "verbose",
                "--seed",
                "5",
            ]
        )
        config = json.loads(report_path.read_text(encoding="utf-8"))["config"]
        assert config["sampling"]["strategy"] == "frequency"
        assert config["sampling"]["seed"] == 5
        assert config["serialization"]["format"] == "verbose"
        assert config["seed"] == 5

    def test_report_config_read_back_as_config_gives_the_same_block(self, tmp_path, pair):
        source, target, gt = pair
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        flags = ["--sampling", "coordinated", "--sample-size", "4", "--seed", "3", "--repeat-k", "2",
                 "--serialization", "repeat", "--reranker", "bipartite", "--llm-top-k", "6"]
        assert main(["evaluate", str(source), str(target), str(gt), "--report", str(first), *flags]) == 0
        config = write_config(tmp_path / "cfg.json", json.loads(first.read_text(encoding="utf-8"))["config"])
        code = main(["evaluate", str(source), str(target), str(gt), "--report", str(second), "--config", config])
        assert code == 0
        blocks = [json.loads(path.read_text(encoding="utf-8"))["config"] for path in (first, second)]
        assert blocks[0]["sampling"] == {"strategy": "coordinated", "sample_size": 4, "seed": 3}
        assert blocks[1] == blocks[0]


class TestConfigResolution:
    def args_for(self, argv):
        return build_parser().parse_args(argv)

    def test_flags_beat_config_file(self, tmp_path, pair):
        source, target, _ = pair
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "sampling": {"strategy": "random", "sample_size": 4, "seed": 9},
                    "serialization": {"format": "verbose"
                    },
                    "reranker": "bipartite",
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        args = self.args_for(
            [
                "match",
                str(source),
                str(target),
                "--config",
                str(cfg),
                "--sampling",
                "frequency",
            ]
        )
        config = resolve_config(args)
        assert config.sampling.strategy == "frequency"  # flag wins
        assert config.sampling.sample_size == 4  # file survives where no flag
        assert config.serialization.format == "verbose"
        assert config.reranker == "bipartite"
        assert config.seed == 9

    def test_preset_sets_reranker_but_flag_wins(self, pair):
        source, target, _ = pair
        args = self.args_for(["match", str(source), str(target), "--preset", "zs-bp"])
        assert resolve_config(args).reranker == "bipartite"
        args = self.args_for(
            ["match", str(source), str(target), "--preset", "zs-bp", "--reranker", "none"]
        )
        assert resolve_config(args).reranker == "none"

    def test_ft_preset_requires_projection(self, pair):
        source, target, _ = pair
        args = self.args_for(["match", str(source), str(target), "--preset", "ft-bp"])
        with pytest.raises(ValueError, match="requires --projection"):
            resolve_config(args)

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--sample-size", "sample_size must be >= 1"),
            ("--repeat-k", "repeat_count must be >= 1"),
            ("--llm-top-k", "llm_top_k must be >= 1"),
        ],
    )
    def test_explicit_zero_is_rejected_not_defaulted(self, pair, flag, message):
        source, target, _ = pair
        args = self.args_for(["match", str(source), str(target), flag, "0"])
        with pytest.raises(ValueError, match=message):
            resolve_config(args)

    def test_explicit_zero_exits_one(self, tmp_path, pair, capsys):
        source, target, _ = pair
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--out", out, "--sample-size", "0"])
        assert code == 1
        assert "sample_size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            pytest.param(keys, value, id=".".join(keys) + suffix)
            for keys in CONFIG_INTEGERS
            for value, suffix in NOT_INTEGERS
        ],
    )
    def test_config_file_integer_that_is_not_one_exits_one(self, tmp_path, pair, capsys, keys, value):
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", nested(keys, value))
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--out", out, "--config", config])
        assert code == 1
        assert capsys.readouterr().err == f"error: {'.'.join(keys)} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("keys", CONFIG_INTEGERS, ids=".".join)
    def test_config_file_integer_as_digits_is_converted(self, tmp_path, pair, keys):
        # as k always was: int("32") is 32
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", nested(keys, "32"))
        args = self.args_for(["match", str(source), str(target), "--config", config])
        value = functools.reduce(getattr, keys, resolve_config(args))
        assert value == 32 and isinstance(value, int)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_file_temperature_that_is_not_finite_exits_one(self, tmp_path, pair, capsys, value):
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", {"llm": {"endpoint": "http://127.0.0.1:9", "temperature": value}})
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--out", out, "--config", config, "--reranker", "llm"])
        assert code == 1
        assert capsys.readouterr().err == f"error: temperature must be finite and >= 0, got {value!r}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("value", [[1], "hot"])
    def test_config_file_temperature_that_is_not_a_number_exits_one(self, tmp_path, pair, capsys, value):
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", {"llm": {"endpoint": "http://127.0.0.1:9", "temperature": value}})
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--out", out, "--config", config])
        assert code == 1
        assert capsys.readouterr().err == f"error: llm.temperature must be a number, got {value!r}\n"

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("reranker",), "reranker must be a string, got None"),
            (("sampling", "strategy"), "sampling.strategy must be a string, got None"),
            (("sampling", "sample_size"), "sampling.sample_size must be an integer, got None"),
            (("llm_top_k",), "llm_top_k must be an integer, got None"),
        ],
    )
    def test_config_file_null_where_the_default_is_not_none_exits_one(
        self, tmp_path, pair, capsys, keys, message
    ):
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", nested(keys, None))
        out = str(tmp_path / "m")
        assert main(["match", str(source), str(target), "--out", out, "--config", config]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_null_where_the_default_is_none_is_absent(self, tmp_path, pair):
        source, target, _ = pair
        spec = {"sampling": None, "projection_path": None, "llm": None, "provider": {"dimension": None}}
        args = self.args_for(["match", str(source), str(target), "--config", write_config(tmp_path / "c.json", spec)])
        assert resolve_config(args) == PipelineConfig()

    def test_config_file_section_that_is_not_an_object_exits_one(self, tmp_path, pair, capsys):
        source, target, _ = pair
        config = write_config(tmp_path / "cfg.json", {"sampling": ["priority"]})
        out = str(tmp_path / "m")
        code = main(["match", str(source), str(target), "--out", out, "--config", config, "--sample-size", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: sampling must be a JSON object, got ['priority']\n"

    def test_serialization_flag_accepts_hyphenated_token(self, pair):
        source, target, _ = pair
        args = self.args_for(
            ["match", str(source), str(target), "--serialization", "header-only"]
        )
        assert resolve_config(args).serialization.format == "header_only"


class TestAugmentFinetuneRoundTrip:
    def test_augment_no_llm_then_finetune_then_match(self, tmp_path, pair, capsys):
        source, target, _ = pair
        classes_path = tmp_path / "classes.jsonl"
        code = main(["augment", str(target), "--no-llm", "--out", str(classes_path)])
        assert code == 0
        classes = load_classes(classes_path)
        assert len(classes) == 4
        assert all({m.origin for m in c.members} == {"anchor", "structural"} for c in classes)

        head_path = tmp_path / "head.bin"
        code = main(
            [
                "finetune",
                "--classes",
                str(classes_path),
                "--out",
                str(head_path),
                "--epochs",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        head = load_head(head_path)
        assert head.dimension == 256

        out = tmp_path / "m"
        code = main(
            [
                "match",
                str(source),
                str(target),
                "--projection",
                str(head_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.with_suffix(".json").exists()

    def test_finetune_fewer_than_four_classes_exits_one(self, tmp_path, capsys):
        write_csv(tmp_path / "narrow.csv", ["a", "b"], [["1", "2"], ["3", "4"]])
        classes_path = tmp_path / "classes.jsonl"
        main(["augment", str(tmp_path / "narrow.csv"), "--no-llm", "--out", str(classes_path)])
        code = main(
            ["finetune", "--classes", str(classes_path), "--out", str(tmp_path / "head.bin")]
        )
        assert code == 1
        assert "at least 4 classes" in capsys.readouterr().err

    def test_finetune_keeps_the_config_file_batch_size(self, tmp_path, pair):
        _, target, _ = pair
        classes_path = tmp_path / "classes.jsonl"
        main(["augment", str(target), "--no-llm", "--out", str(classes_path)])

        def handler(path, body):
            vectors = [hash_embed(t, 8).tolist() for t in body["texts"]]
            return 200, {"dimension": 8, "vectors": vectors}

        with JsonStubServer(handler) as server:
            provider = {"kind": "remote", "endpoint": server.url, "batch_size": 2}
            config = write_config(tmp_path / "cfg.json", {"provider": provider})
            code = main(
                ["finetune", "--classes", str(classes_path), "--out", str(tmp_path / "head.bin"),
                 "--epochs", "1", "--config", config]
            )
            sizes = [len(body["texts"]) for _, body, _ in server.requests]
        assert code == 0
        assert load_head(tmp_path / "head.bin").dimension == 8
        assert sum(sizes) == 12 and max(sizes) == 2

    def test_augment_takes_the_llm_section_of_the_config_file(self, tmp_path, pair):
        _, target, _ = pair

        def handler(path, body):
            return 200, {"choices": [{"message": {"content": "alt, a, b"}}]}

        with JsonStubServer(handler) as server:
            llm = {"endpoint": server.url, "model": "m-aug", "temperature": 0.7}
            config = write_config(tmp_path / "cfg.json", {"llm": llm})
            out = str(tmp_path / "c.jsonl")
            code = main(["augment", str(target), "--out", out, "--config", config])
            bodies = [body for _, body, _ in server.requests]
        assert code == 0
        assert len(bodies) == 4
        assert {(b["model"], b["temperature"]) for b in bodies} == {("m-aug", 0.7)}

    def test_augment_with_replay_adds_semantic_members(self, tmp_path, pair):
        _, target, _ = pair
        transcript = tmp_path / "aug.jsonl"
        classes_a = tmp_path / "a.jsonl"
        classes_b = tmp_path / "b.jsonl"
        code = main(
            [
                "augment",
                str(target),
                "--out",
                str(classes_a),
                "--record",
                str(transcript),
                "--replay",
                str(self._seed_transcript(tmp_path, target)),
            ]
        )
        assert code == 0
        first = load_classes(classes_a)
        assert any(m.origin == "semantic" for c in first for m in c.members)
        # replaying the recorded transcript reproduces the classes file
        code = main(
            ["augment", str(target), "--out", str(classes_b), "--replay", str(transcript)]
        )
        assert code == 0
        assert load_classes(classes_b) == first

    @staticmethod
    def _seed_transcript(tmp_path, target_path):
        """Build a transcript answering every augmentation prompt."""
        from colmatch.augmentation import build_augmentation_prompt
        from colmatch.sampling import SamplerConfig, sample_values

        target = load_table(target_path)
        path = tmp_path / "seed.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for col in target.columns:
                sample = sample_values(col, SamplerConfig(seed=0))
                prompt = build_augmentation_prompt(col.name, sample)
                response = f"{col.name}_alt, x1, x2; {col.name}_b, y1"
                fh.write(json.dumps({"prompt": prompt, "response": response}) + "\n")
        return path


class TestAblateCommand:
    def test_grid_runs_and_prints_table(self, tmp_path, pair, capsys):
        source, target, gt = pair
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "suite": [
                        {"source": str(source), "target": str(target), "ground_truth": str(gt)}
                    ],
                    "sampling": ["priority", "frequency"],
                    "repetitions": 1,
                    "seeds": [0],
                    "dimension": 64,
                }
            ),
            encoding="utf-8",
        )
        out_dir = tmp_path / "results"
        code = main(["ablate", "--grid", str(grid_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "records.jsonl").exists()
        out = capsys.readouterr().out
        assert "MRR" in out
        assert "2 cells" in out

    @staticmethod
    def _grid(tmp_path, pair, **spec):
        source, target, gt = pair
        grid_path = tmp_path / "grid.json"
        suite = [{"source": str(source), "target": str(target), "ground_truth": str(gt)}]
        grid_path.write_text(json.dumps({"suite": suite, "repetitions": 1, **spec}), encoding="utf-8")
        return str(grid_path)

    def test_grid_dimension_as_digits_is_converted(self, tmp_path, pair, capsys):
        out_dir = tmp_path / "results"
        code = main(["ablate", "--grid", self._grid(tmp_path, pair, dimension="16"), "--out", str(out_dir)])
        assert code == 0
        records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
        assert [r.get("error") for r in records] == [None]
        assert "n/a" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dimension", "wide"),
            ("seeds", ["many"]),
            ("repetitions", [2]),
            ("sample_size", None),
            ("dimension", True),
            ("seeds", [2.9]),
            ("repetitions", float("inf")),
            ("sample_size", float("nan")),
        ],
    )
    def test_grid_integer_that_is_not_one_exits_one(self, tmp_path, pair, capsys, key, value):
        grid = self._grid(tmp_path, pair, **{key: value})
        assert main(["ablate", "--grid", grid, "--out", str(tmp_path / "results")]) == 1
        shown = repr(value[0] if key == "seeds" else value)
        assert capsys.readouterr().err == f"error: {key} must be an integer, got {shown}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dimension", 1, "dimension must be >= 2"),
            ("sample_size", 0, "sample_size must be >= 1"),
            ("rerankers", ["llm"], "llm endpoint required"),
        ],
    )
    def test_grid_that_no_cell_could_run_exits_one(self, tmp_path, pair, capsys, key, value, message):
        out_dir = tmp_path / "results"
        assert main(["ablate", "--grid", self._grid(tmp_path, pair, **{key: value}), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out_dir / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            *[(axis, None, f"{axis} must be a list, got None")
              for axis in ("sampling", "serialization", "rerankers", "projections", "seeds")],
            ("llm", {"endpoint": "http://x", "temperature": [1]}, "llm.temperature must be a number, got [1]"),
            ("llm", {"endpoint": "http://x", "temperature": "hot"}, "llm.temperature must be a number, got 'hot'"),
        ],
    )
    def test_grid_value_of_the_wrong_type_exits_one(self, tmp_path, pair, capsys, key, value, message):
        out_dir = tmp_path / "results"
        assert main(["ablate", "--grid", self._grid(tmp_path, pair, **{key: value}), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_config_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--grid", "g.json", "--out", str(tmp_path), "--config", "c.json"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestReadmeExamples:
    def test_every_json_example_reads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        examples = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
        configs = [spec for spec in examples if "suite" not in spec]
        grids = [spec for spec in examples if "suite" in spec]
        assert [PipelineConfig.from_dict(spec).provider.kind for spec in configs] == ["remote", "hash"]
        assert PipelineConfig.from_dict(configs[1]).provider.cache_path == "vectors.cache"
        assert len(grids) == 1
        grid = load_grid(write_config(tmp_path / "grid.json", grids[0]))
        assert len(grid.cells()) == 8 and grid.seeds == (0, 1, 2)


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "colmatch.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "match" in result.stdout


class TestScipyImport:
    def test_scipy_loads_only_for_a_bipartite_run(self, tmp_path, pair):
        # a fresh interpreter, so no other test's import counts
        source, target, _ = pair
        script = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return len([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
            "from colmatch.cli import build_parser, main\n"
            "build_parser()\n"
            "seen = [scipy_modules()]\n"
            "for reranker in ('none', 'bipartite'):\n"
            f"    out = {str(tmp_path)!r} + '/' + reranker\n"
            f"    code = main(['match', {str(source)!r}, {str(target)!r}, '--out', out, '--reranker', reranker])\n"
            "    seen += [code, scipy_modules()]\n"
            "print(json.dumps(seen))\n"
        )
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        after_import, none_code, after_none, bipartite_code, after_bipartite = json.loads(
            result.stdout.splitlines()[-1]
        )
        assert (after_import, none_code, after_none, bipartite_code) == (0, 0, 0, 0)
        assert after_bipartite > 0
