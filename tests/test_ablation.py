import csv
import json
import random
from types import SimpleNamespace
import statistics
from collections import Counter

import numpy as np
import pytest

import colmatch.ablation as ablation
import colmatch.metrics as metrics
import colmatch.pipeline as pipeline
import colmatch.retrieval as retrieval
from colmatch.ablation import (
    ExperimentGrid,
    aggregate,
    format_measure,
    load_grid,
    run_grid,
    write_results,
)
from colmatch.embedding import HashProvider
from colmatch.finetune import ProjectionHead, save_head

from helpers import identity_pair, write_csv
from oracles import run_one_longhand


def make_suite(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir(exist_ok=True)
    dir_b.mkdir(exist_ok=True)
    pair_a = identity_pair(dir_a, n_cols=3, n_rows=15)
    pair_b = identity_pair(dir_b, n_cols=4, n_rows=15)
    return (
        tuple(str(p) for p in pair_a),
        tuple(str(p) for p in pair_b),
    )


def small_grid(tmp_path, **overrides):
    options = {
        "suite": make_suite(tmp_path),
        "sampling": ("priority", "frequency"),
        "serialization": ("default", "verbose"),
        "rerankers": ("none",),
        "projections": (None,),
        "repetitions": 2,
        "seeds": (0, 1),
        "dimension": 64,
    }
    options.update(overrides)
    return ExperimentGrid(**options)


class TestGridValidation:
    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            ExperimentGrid(suite=())

    def test_bad_axis_tokens_rejected(self, tmp_path):
        suite = make_suite(tmp_path)
        with pytest.raises(ValueError):
            ExperimentGrid(suite=suite, sampling=("bogus",))
        with pytest.raises(ValueError):
            ExperimentGrid(suite=suite, serialization=("bogus",))
        with pytest.raises(ValueError):
            ExperimentGrid(suite=suite, rerankers=("bogus",))

    def test_repetitions_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentGrid(suite=make_suite(tmp_path), repetitions=0)

    def test_cells_are_the_axis_product_in_order(self, tmp_path):
        grid = small_grid(tmp_path)
        cells = grid.cells()
        assert len(cells) == 4
        assert cells[0] == {
            "sampling": "priority",
            "serialization": "default",
            "reranker": "none",
            "projection": None,
        }
        assert [c["sampling"] for c in cells] == ["priority", "priority", "frequency", "frequency"]


class TestFormatMeasure:
    def test_matches_reporting_style(self):
        assert format_measure([0.425, 0.263]) == "0.344±0.081"

    def test_single_value_has_zero_std(self):
        assert format_measure([0.5]) == "0.500±0.000"

    def test_empty_is_na(self):
        assert format_measure([]) == "n/a"


class TestRunGrid:
    def test_one_cell_one_pair_one_repetition(self, tmp_path):
        grid = small_grid(
            tmp_path,
            sampling=("priority",),
            serialization=("default",),
            repetitions=1,
            seeds=(0,),
        )
        rows = run_grid(grid, tmp_path / "out")
        assert len(rows) == 1
        assert rows[0]["runs"] == 2  # two pairs x one repetition
        assert rows[0]["failures"] == 0
        # identity fixture: exact-name override pins everything
        assert rows[0]["mrr"] == "1.000±0.000"

    def test_record_count_and_fields(self, tmp_path):
        grid = small_grid(tmp_path)
        run_grid(grid, tmp_path / "out")
        lines = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4 * 2 * 2  # cells x pairs x repetitions
        record = json.loads(lines[0])
        assert set(record) >= {"cell", "pair", "repetition", "seed", "mrr", "recall_at_gt"}

    def test_repeated_seeds_give_exactly_zero_std(self, tmp_path):
        grid = small_grid(tmp_path, seeds=(7, 7), repetitions=2)
        rows = run_grid(grid, tmp_path / "out")
        for row in rows:
            assert row["mrr_std"] == 0.0
            assert row["recall_std"] == 0.0

    def test_rerun_from_completed_checkpoint_is_byte_identical(self, tmp_path):
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        run_grid(grid, out)
        before = {
            name: (out / name).read_bytes()
            for name in ("records.jsonl", "results.csv", "results.txt")
        }
        run_grid(grid, out)
        after = {
            name: (out / name).read_bytes()
            for name in ("records.jsonl", "results.csv", "results.txt")
        }
        assert before == after

    def test_fresh_runs_agree_on_results(self, tmp_path):
        grid = small_grid(tmp_path)
        run_grid(grid, tmp_path / "out1")
        run_grid(grid, tmp_path / "out2")
        assert (tmp_path / "out1" / "results.csv").read_bytes() == (
            tmp_path / "out2" / "results.csv"
        ).read_bytes()
        assert (tmp_path / "out1" / "results.txt").read_bytes() == (
            tmp_path / "out2" / "results.txt"
        ).read_bytes()

    def test_resume_after_truncated_checkpoint(self, tmp_path):
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        run_grid(grid, out)
        reference = (out / "results.csv").read_bytes()
        records = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        partial = tmp_path / "resume"
        partial.mkdir()
        (partial / "records.jsonl").write_text(
            "\n".join(records[: len(records) // 2]) + "\n", encoding="utf-8"
        )
        run_grid(grid, partial)
        resumed = (partial / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(resumed) == len(records)
        assert (partial / "results.csv").read_bytes() == reference

    def test_resume_after_torn_last_record(self, tmp_path):
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        run_grid(grid, out)
        reference = (out / "results.csv").read_bytes()
        records = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / "records.jsonl").write_text(
            "\n".join(records[:2]) + '\n{"c": 3, "mr', encoding="utf-8"
        )
        run_grid(grid, torn)
        resumed = (torn / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(resumed) == len(records)
        assert [json.loads(line)["cell"] for line in resumed] == [
            json.loads(line)["cell"] for line in records
        ]
        assert (torn / "results.csv").read_bytes() == reference

    def test_resume_after_a_last_record_torn_at_any_byte(self, tmp_path, monkeypatch):
        # every runtime_seconds reads 0.0, so a re-run record repeats byte for byte
        monkeypatch.setattr(metrics, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        run_grid(grid, out)
        intact, reference = (out / "records.jsonl").read_bytes(), (out / "results.csv").read_bytes()
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        for cut in range(last, len(intact)):
            (resumed / "records.jsonl").write_bytes(intact[:cut])
            run_grid(grid, resumed)
            assert (resumed / "records.jsonl").read_bytes() == intact
            assert (resumed / "results.csv").read_bytes() == reference

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '{"c": 1}',
            '{"cell": 1, "pair": 0, "repetition": 0, "seed": 0, "error": "E"}',
            '{"cell": "x", "pair": true, "repetition": 0, "seed": 0, "error": "E"}',
            '{"cell": "x", "pair": 0, "repetition": 0.0, "seed": 0, "error": "E"}',
            '{"cell": "x", "pair": 0, "repetition": 0, "error": "E"}',
            '{"cell": "x", "pair": 0, "repetition": 0, "seed": 0}',
            '{"cell": "x", "pair": 0, "repetition": 0, "seed": 0, "mrr": "1", "recall_at_gt": 1, "runtime_seconds": 0}',
            '{"cell": "x", "pair": 0, "repetition": 0, "seed": 0, "error": null, "mrr": 1, "recall_at_gt": 1, "runtime_seconds": 0}',
        ],
    )
    def test_record_of_the_wrong_shape_names_the_file_and_line(self, tmp_path, line):
        out = tmp_path / "out"
        out.mkdir()
        good = '{"cell": "x", "pair": 0, "repetition": 0, "seed": 0, "error": "E"}\n'
        (out / "records.jsonl").write_text(good + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"records.jsonl:2: a record must hold"):
            run_grid(small_grid(tmp_path), out)
        assert (out / "records.jsonl").read_text(encoding="utf-8") == good + line + "\n"

    def test_bad_earlier_record_still_raises(self, tmp_path):
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "records.jsonl").write_text('{"c": 3, "mr\n{"c": 4}\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            run_grid(grid, out)

    def test_failures_recorded_and_grid_continues(self, tmp_path):
        good = make_suite(tmp_path)[0]
        bad = (str(tmp_path / "missing.csv"), good[1], good[2])
        grid = ExperimentGrid(
            suite=(bad, good),
            sampling=("priority",),
            repetitions=1,
            seeds=(0,),
            dimension=64,
        )
        rows = run_grid(grid, tmp_path / "out")
        assert rows[0]["failures"] == 1
        assert rows[0]["runs"] == 1
        records = [
            json.loads(l)
            for l in (tmp_path / "out" / "records.jsonl").read_text().splitlines()
        ]
        assert any("error" in r for r in records)
        assert rows[0]["mrr"] == "1.000±0.000"  # the good pair still aggregated

    def test_aggregates_recomputable_from_records(self, tmp_path):
        grid = small_grid(tmp_path)
        out = tmp_path / "out"
        rows = run_grid(grid, out)
        records = [
            json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()
        ]
        for row in rows:
            cell_id = "|".join(
                [row["sampling"], row["serialization"], row["reranker"], "none"]
            )
            values = [r["mrr"] for r in records if r["cell"] == cell_id and "error" not in r]
            assert row["mrr_mean"] == statistics.fmean(values)
            assert row["mrr_std"] == statistics.pstdev(values)
        again = aggregate(grid, records)
        assert again == rows

    def test_csv_layout(self, tmp_path):
        grid = small_grid(tmp_path, sampling=("priority",), serialization=("default",))
        run_grid(grid, tmp_path / "out")
        with open(tmp_path / "out" / "results.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "sampling",
            "serialization",
            "reranker",
            "projection",
            "runs",
            "failures",
            "mrr_mean",
            "mrr_std",
            "recall_mean",
            "recall_std",
        ]
        assert len(rows) == 2
        assert rows[1][0] == "priority"

    def test_text_table_contains_headers_and_measures(self, tmp_path):
        grid = small_grid(tmp_path, sampling=("priority",), serialization=("default",))
        run_grid(grid, tmp_path / "out")
        text = (tmp_path / "out" / "results.txt").read_text(encoding="utf-8")
        assert "MRR" in text and "Recall@GT" in text
        assert "±" in text


class TestLoadGrid:
    def test_load_with_defaults(self, tmp_path):
        suite = make_suite(tmp_path)
        spec = {
            "suite": [
                {"source": s, "target": t, "ground_truth": g} for s, t, g in suite
            ],
            "sampling": ["priority", "random"],
            "repetitions": 2,
            "seeds": [3, 4],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        grid = load_grid(path)
        assert grid.suite == suite
        assert grid.sampling == ("priority", "random")
        assert grid.serialization == ("default",)
        assert grid.rerankers == ("none",)
        assert grid.projections == (None,)
        assert grid.repetitions == 2
        assert grid.seeds == (3, 4)

    def test_suite_entries_as_path_triples(self, tmp_path):
        suite = make_suite(tmp_path)
        spec = {"suite": [list(entry) for entry in suite]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert load_grid(path).suite == suite

    def test_malformed_suite_entry_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"suite": [["only", "two"]]}), encoding="utf-8")
        with pytest.raises(ValueError, match="suite entries"):
            load_grid(path)

    def test_grid_file_with_a_byte_order_mark_is_read(self, tmp_path):
        suite = make_suite(tmp_path)
        path = tmp_path / "grid.json"
        spec = {"suite": [list(entry) for entry in suite], "repetitions": 2}
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(spec).encode("utf-8"))
        grid = load_grid(path)
        assert grid.suite == suite and grid.repetitions == 2

    @pytest.mark.parametrize("content", [b'{"suite": [', b'{"suite": "\xff"}'], ids=["truncated", "not-utf-8"])
    def test_grid_file_that_does_not_read_names_itself(self, tmp_path, content):
        path = tmp_path / "grid.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as raised:
            load_grid(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("spec", [[1, 2], "grid", None])
    def test_grid_file_that_is_not_an_object_names_itself(self, tmp_path, spec):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_grid(path)
        assert str(raised.value).startswith(f"{path}: must hold a JSON object")

    def test_llm_section_parsed(self, tmp_path):
        suite = make_suite(tmp_path)
        spec = {
            "suite": [{"source": s, "target": t, "ground_truth": g} for s, t, g in suite],
            "llm": {"endpoint": "http://example/v1", "model": "m1"},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        grid = load_grid(path)
        assert grid.llm.endpoint == "http://example/v1"
        assert grid.llm.model == "m1"


def grid_with_head(root, matrix):
    """One-cell-per-projection grid over a suite and a head file under `root`."""
    root.mkdir(parents=True, exist_ok=True)
    head = root / "head.bin"
    save_head(ProjectionHead(matrix), head)
    grid = small_grid(
        root,
        sampling=("priority",),
        serialization=("default",),
        projections=(None, str(head)),
        repetitions=1,
        seeds=(0,),
    )
    return grid, head


def records_without_runtime(out):
    lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    return [
        {key: value for key, value in json.loads(line).items() if key != "runtime_seconds"}
        for line in lines
    ]


class TestProjectionLabel:
    def test_results_do_not_depend_on_where_the_grid_lies(self, tmp_path):
        outs = []
        for name in ("a", "another-checkout"):
            grid, _ = grid_with_head(tmp_path / name, np.eye(64))
            run_grid(grid, tmp_path / name / "out")
            outs.append(tmp_path / name / "out")
        near, far = outs
        for name in ("results.txt", "results.csv"):
            assert (near / name).read_bytes() == (far / name).read_bytes()
        assert records_without_runtime(near) == records_without_runtime(far)
        assert "head.bin@" in (near / "results.txt").read_text(encoding="utf-8")

    def test_rewritten_head_is_a_new_cell(self, tmp_path):
        grid, head = grid_with_head(tmp_path, np.eye(64))
        out = tmp_path / "out"
        run_grid(grid, out)
        save_head(ProjectionHead(2.0 * np.eye(64)), head)
        rows = run_grid(grid, out)
        records = records_without_runtime(out)
        assert len(records) == 3 * 2  # none, the first head, the rewritten head; two pairs
        assert len({r["cell"] for r in records}) == 3
        assert [row["runs"] for row in rows] == [2, 2]

    def test_missing_head_keeps_its_file_name(self, tmp_path):
        grid = small_grid(
            tmp_path,
            sampling=("priority",),
            serialization=("default",),
            projections=(str(tmp_path / "gone" / "head.bin"),),
            repetitions=1,
            seeds=(0,),
        )
        rows = run_grid(grid, tmp_path / "out")
        assert rows[0]["failures"] == 2
        records = records_without_runtime(tmp_path / "out")
        assert {r["cell"] for r in records} == {"priority|default|none|head.bin"}


def value_pair(directory, prefix, n_cols, seed):
    """Source/target/gt CSVs matched by overlapping values; only column 0's names agree.

    Names share no normalized form apart from column 0, so retrieval, the
    sample and the head decide the ranking and MRR stays below 1.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    pools = [[f"{prefix}{i}_{v}" for v in range(12)] for i in range(n_cols)]
    target_names = [f"{prefix}_key"] + [f"{prefix}_t{i}" for i in range(1, n_cols)]
    source_names = [f"{prefix.upper()} KEY"] + [f"{prefix}src{i}" for i in range(1, n_cols)]
    target_rows = [[rng.choice(pool) for pool in pools] for _ in range(18)]
    # every source column mixes its own pool with the next column's
    source_rows = [
        [rng.choice(pools[i] + pools[(i + 1) % n_cols][:4]) for i in range(n_cols)]
        for _ in range(15)
    ]
    source = write_csv(directory / "source.csv", source_names, source_rows)
    target = write_csv(directory / "target.csv", target_names, target_rows)
    gt = write_csv(
        directory / "gt.csv",
        ["source_column", "target_column"],
        [[s, t] for s, t in zip(source_names, target_names)],
    )
    return tuple(str(p) for p in (source, target, gt))


def four_axis_grid(root, **overrides):
    """Two pairs, two seeds, and a head file on every one of the four axes."""
    head = root / "head.bin"
    rng = np.random.RandomState(3)
    save_head(ProjectionHead(np.eye(64) + 0.4 * rng.randn(64, 64)), head)
    options = {
        "suite": (value_pair(root / "a", "p", 5, 1), value_pair(root / "b", "q", 6, 2)),
        "sampling": ("priority", "frequency"),
        "serialization": ("default", "verbose"),
        "rerankers": ("none", "bipartite"),
        "projections": (None, str(head)),
        "repetitions": 2,
        "seeds": (0, 1),
        "sample_size": 4,
        "dimension": 64,
    }
    options.update(overrides)
    return ExperimentGrid(**options)


def records_longhand(grid):
    """Every run's record, computed cell by cell with run_one_longhand."""
    records = []
    for cell in grid.cells():
        cid = "|".join(ablation._cell_labels(cell))
        for pair_index, pair in enumerate(grid.suite):
            for repetition in range(grid.repetitions):
                seed = grid.seeds[repetition % len(grid.seeds)]
                record = {"cell": cid, "pair": pair_index, "repetition": repetition, "seed": seed}
                try:
                    record.update(run_one_longhand(cell, pair, seed, grid))
                except Exception as exc:  # noqa: BLE001 - recorded as run_grid records it
                    record["error"] = f"{type(exc).__name__}: {exc}"
                records.append(record)
    return records


def by_run(records):
    runtime_free = [{k: v for k, v in r.items() if k != "runtime_seconds"} for r in records]
    return sorted(runtime_free, key=lambda r: (r["cell"], r["pair"], r["repetition"]))


def assert_grid_equals_longhand(grid, root):
    out, longhand_out = root / "out", root / "longhand"
    run_grid(grid, out)
    expected = records_longhand(grid)
    assert by_run(records_without_runtime(out)) == by_run(expected)
    longhand_out.mkdir()
    write_results(aggregate(grid, expected), longhand_out)
    for name in ("results.csv", "results.txt"):
        assert (out / name).read_bytes() == (longhand_out / name).read_bytes()
    return records_without_runtime(out)


class TestSharedProfiles:
    def test_grid_equals_the_cell_by_cell_longhand(self, tmp_path):
        grid = four_axis_grid(tmp_path)
        records = assert_grid_equals_longhand(grid, tmp_path)
        assert len(records) == 16 * 2 * 2
        assert not any("error" in r for r in records)
        assert len({r["mrr"] for r in records}) > 1  # the axes change the outcome

    def test_records_are_pair_major(self, tmp_path):
        grid = four_axis_grid(tmp_path)
        run_grid(grid, tmp_path / "out")
        pairs = [r["pair"] for r in records_without_runtime(tmp_path / "out")]
        assert pairs == sorted(pairs)

    def test_each_pair_is_loaded_once(self, tmp_path, monkeypatch):
        grid = four_axis_grid(tmp_path)
        loads = Counter()

        def counting(path, original=ablation.load_table):
            loads[str(path)] += 1
            return original(path)

        monkeypatch.setattr(ablation, "load_table", counting)
        run_grid(grid, tmp_path / "out")
        assert loads == Counter(path for pair in grid.suite for path in pair[:2])

    def test_each_column_is_sampled_once_per_sampling_key(self, tmp_path, monkeypatch):
        grid = four_axis_grid(tmp_path)
        calls = Counter()
        for module in (pipeline, retrieval):

            def counting(column, config, original=module.sample_values, **kwargs):
                calls[(column.name, config)] += 1
                return original(column, config, **kwargs)

            monkeypatch.setattr(module, "sample_values", counting)
        run_grid(grid, tmp_path / "out")
        n_columns = (5 + 5) + (6 + 6)
        n_keys = len(grid.sampling) * len(grid.seeds)
        assert set(calls.values()) == {1}
        assert len(calls) == n_columns * n_keys

    def test_each_text_is_embedded_once_per_profile_key(self, tmp_path, monkeypatch):
        grid = four_axis_grid(tmp_path)
        calls = []

        def recording(self, texts, original=HashProvider.embed):
            calls.append(list(texts))
            return original(self, texts)

        monkeypatch.setattr(HashProvider, "embed", recording)
        run_grid(grid, tmp_path / "out")
        n_keys = len(grid.sampling) * len(grid.serialization) * len(grid.seeds)
        assert len(calls) == len(grid.suite) * 2 * n_keys  # one call per table and key
        assert sum(len(texts) for texts in calls) == ((5 + 5) + (6 + 6)) * n_keys

    def test_a_pair_that_fails_to_load_fails_only_its_own_runs(self, tmp_path):
        good = value_pair(tmp_path / "b", "q", 6, 2)
        grid = four_axis_grid(
            tmp_path, suite=((str(tmp_path / "missing.csv"), good[1], good[2]), good)
        )
        records = assert_grid_equals_longhand(grid, tmp_path)
        failed = [r for r in records if "error" in r]
        assert len(failed) == len(grid.cells()) * grid.repetitions
        assert {r["pair"] for r in failed} == {0}
        assert all(r["error"].startswith("FileNotFoundError") for r in failed)
        assert all("mrr" in r for r in records if r["pair"] == 1)

    def test_a_head_of_the_wrong_width_fails_only_its_own_cells(self, tmp_path):
        wrong = tmp_path / "narrow.bin"
        save_head(ProjectionHead(np.eye(32)), wrong)
        grid = four_axis_grid(tmp_path, projections=(None, str(tmp_path / "head.bin"), str(wrong)))
        records = assert_grid_equals_longhand(grid, tmp_path)
        failed = [r for r in records if "error" in r]
        assert {r["cell"].split("|")[3].split("@")[0] for r in failed} == {"narrow.bin"}
        assert len(failed) == len(grid.cells()) // 3 * len(grid.suite) * grid.repetitions
        assert all(
            r["error"] == "ValueError: head dimension 32 does not match provider dimension 64"
            for r in failed
        )
