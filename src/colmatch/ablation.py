"""Grid experiments over sampling x serialization x reranker x projection.

Every (cell, pair, repetition) run is appended to a JSONL checkpoint before
any aggregation happens, so a crashed grid resumes where it stopped and the
reported numbers can be re-derived from the raw records by hand.  Failed
runs are recorded too and count as done on resume; means skip them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .embedding import EmbeddingProviderConfig, get_provider
from .linestore import LineStore
from .metrics import evaluate
from .pipeline import PipelineConfig, as_integer, read_config, read_json_file
from .rerank_llm import LlmConfig
from .retrieval import column_samples, profile_table
from .sampling import SamplerConfig
from .serialization import SerializationConfig
from .tables import load_ground_truth, load_table

log = logging.getLogger(__name__)

RECORDS_NAME = "records.jsonl"
CSV_NAME = "results.csv"
TABLE_NAME = "results.txt"


@dataclass(frozen=True)
class ExperimentGrid:
    """Axes and table-pair suite for one ablation run.

    Each axis defaults to its config class's default.  Building the grid
    builds every cell's PipelineConfig, without reading any file, so a grid
    with a cell whose settings cannot run is rejected before the first run.
    """

    suite: tuple  # of (source, target, ground truth) paths, or objects with those keys
    sampling: tuple = (SamplerConfig.strategy,)
    serialization: tuple = (SerializationConfig.format,)
    rerankers: tuple = (PipelineConfig.reranker,)
    projections: tuple = (PipelineConfig.projection_path,)  # head paths; None = frozen base encoder
    repetitions: int = 3
    seeds: tuple = (PipelineConfig.seed,)
    sample_size: int = SamplerConfig.sample_size
    dimension: Optional[int] = EmbeddingProviderConfig.dimension
    llm: Optional[LlmConfig] = PipelineConfig.llm

    def __post_init__(self) -> None:
        object.__setattr__(self, "suite", tuple(_suite_entry(entry) for entry in self.suite))
        for axis in ("sampling", "serialization", "rerankers", "projections"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        object.__setattr__(self, "seeds", tuple(as_integer(s, "seeds") for s in self.seeds))
        if not self.suite:
            raise ValueError("suite must list at least one table pair")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed required")
        for cell in self.cells():
            _cell_config(cell, self.seeds[0], self)
        if "llm" in self.rerankers and self.llm is None:  # a grid runs without a client
            raise ValueError("llm endpoint required")

    def cells(self) -> list:
        """Axis product in declaration order; one dict per cell."""
        return [
            {"sampling": s, "serialization": f, "reranker": r, "projection": p}
            for s, f, r, p in itertools.product(
                self.sampling, self.serialization, self.rerankers, self.projections
            )
        ]


def _suite_entry(entry):
    # accepts ["src", "dst", "gt"] or {"source": ..., "target": ..., "ground_truth": ...}
    if isinstance(entry, dict):
        entry = [entry.get(key) for key in ("source", "target", "ground_truth")]
    if isinstance(entry, (list, tuple)) and len(entry) == 3 and all(isinstance(p, (str, Path)) for p in entry):
        return tuple(entry)
    raise ValueError(
        "suite entries must be [source, target, ground_truth] paths or an object with those keys"
    )


def load_grid(path) -> ExperimentGrid:
    """The grid file read by read_config: absent keys take ExperimentGrid's defaults."""
    return read_config(ExperimentGrid, read_json_file(path))


def _projection_label(path) -> str:
    """The label "none", or the head file name @ the first 12 hex of its sha256.

    By content, not location: any checkout gives the same label, a rewritten
    head a new one.  A missing file keeps its bare name; its runs record the error.
    """
    if path is None:
        return "none"
    path = Path(path)
    try:
        return f"{path.name}@{hashlib.sha256(path.read_bytes()).hexdigest()[:12]}"
    except OSError:
        return path.name


def _cell_labels(cell: dict) -> list:
    projection = _projection_label(cell["projection"])
    return [cell["sampling"], cell["serialization"], cell["reranker"], projection]


def _cell_config(cell: dict, seed: int, grid: ExperimentGrid) -> PipelineConfig:
    return PipelineConfig(
        sampling=SamplerConfig(
            strategy=cell["sampling"], sample_size=grid.sample_size, seed=seed
        ),
        serialization=SerializationConfig(format=cell["serialization"]),
        provider=EmbeddingProviderConfig(dimension=grid.dimension),
        reranker=cell["reranker"],
        projection_path=cell["projection"],
        llm=grid.llm,
        seed=seed,
    )


def _record(line: str) -> dict:
    """The run record a records.jsonl line holds, else a ValueError.

    It holds a string "cell", integer "pair", "repetition" and "seed", and
    then a string "error" or numeric "mrr", "recall_at_gt" and "runtime_seconds".
    """
    record = json.loads(line)
    if not (
        isinstance(record, dict)
        and isinstance(record.get("cell"), str)
        and all(type(record.get(k)) is int for k in ("pair", "repetition", "seed"))
        and (
            isinstance(record["error"], str) if "error" in record
            else all(type(record.get(k)) in (int, float) for k in ("mrr", "recall_at_gt", "runtime_seconds"))
        )
    ):
        raise ValueError(
            'a record must hold "cell" (string), "pair", "repetition" and "seed" (integers), '
            'then "error" (string) or numeric "mrr", "recall_at_gt" and "runtime_seconds"'
        )
    return record


def _run_pair(grid: ExperimentGrid, pair_index: int, runs, records: LineStore) -> None:
    """Run one suite pair's pending (cell, cell id, repetition) runs, appending each record.

    The pair is loaded once, each table sampled once per sampler setting and
    profiled once per distinct (sampling, serialization, provider) setting;
    the reranker and projection axes share that profile.  A failed load
    fails every run of the pair.
    """
    pair = grid.suite[pair_index]
    try:
        loaded = (load_table(pair[0]), load_table(pair[1]), load_ground_truth(pair[2]))
    except Exception as exc:  # noqa: BLE001 - recorded against each of the pair's runs
        loaded = exc
    samples, profiles = {}, {}
    for cell, cid, repetition in runs:
        seed = grid.seeds[repetition % len(grid.seeds)]
        record = {"cell": cid, "pair": pair_index, "repetition": repetition, "seed": seed}
        try:
            if isinstance(loaded, Exception):
                raise loaded
            source, target, gt = loaded
            config = _cell_config(cell, seed, grid)
            key = (config.sampling, config.serialization, config.provider)
            if key not in profiles:
                if config.sampling not in samples:
                    samples[config.sampling] = [
                        column_samples(t, config.sampling) for t in (source, target)
                    ]
                provider = get_provider(config.provider)
                profiles[key] = tuple(
                    profile_table(t, config.sampling, config.serialization, provider, s)
                    for t, s in zip((source, target), samples[config.sampling])
                )
            report = evaluate(source, target, gt, config, profiles=profiles[key])
            record.update(
                mrr=report.mrr,
                recall_at_gt=report.recall_at_gt,
                runtime_seconds=report.runtime_seconds,
            )
        except Exception as exc:  # noqa: BLE001 - cell failures must not kill the grid
            record["error"] = f"{type(exc).__name__}: {exc}"
            log.warning("run %s pair=%d rep=%d failed: %s", cid, pair_index, repetition, record["error"])
        records.append(json.dumps(record, ensure_ascii=False))


def format_measure(values) -> str:
    """Population mean +/- std in the fixed 3-decimal style, e.g. 0.344±0.081."""
    if not values:
        return "n/a"
    mean = statistics.fmean(values)
    std = statistics.pstdev(values)
    return f"{mean:.3f}±{std:.3f}"


def aggregate(grid: ExperimentGrid, records) -> list:
    """Fold per-run records into one row per cell, in cell declaration order."""
    by_cell = {}
    for record in records:
        by_cell.setdefault(record["cell"], []).append(record)
    rows = []
    for cell in grid.cells():
        cid = "|".join(_cell_labels(cell))
        cell_records = sorted(by_cell.get(cid, []), key=lambda r: (r["pair"], r["repetition"]))
        ok = [r for r in cell_records if "error" not in r]
        failed = [r for r in cell_records if "error" in r]
        mrr_values = [r["mrr"] for r in ok]
        recall_values = [r["recall_at_gt"] for r in ok]
        rows.append(
            {
                **cell,
                "runs": len(ok),
                "failures": len(failed),
                "mrr_mean": statistics.fmean(mrr_values) if mrr_values else None,
                "mrr_std": statistics.pstdev(mrr_values) if mrr_values else None,
                "recall_mean": statistics.fmean(recall_values) if recall_values else None,
                "recall_std": statistics.pstdev(recall_values) if recall_values else None,
                "mrr": format_measure(mrr_values),
                "recall_at_gt": format_measure(recall_values),
            }
        )
    return rows


def write_results(rows, out_dir: Path) -> None:
    numeric = [
        "runs",
        "failures",
        "mrr_mean",
        "mrr_std",
        "recall_mean",
        "recall_std",
    ]
    labels = [_cell_labels(row) for row in rows]
    with open(out_dir / CSV_NAME, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sampling", "serialization", "reranker", "projection"] + numeric)
        for row, label in zip(rows, labels):
            writer.writerow(
                label
                + ["" if row[key] is None else repr(row[key]) if isinstance(row[key], float) else row[key] for key in numeric]
            )

    headers = ["sampling", "serialization", "reranker", "projection", "MRR", "Recall@GT"]
    table_rows = [label + [row["mrr"], row["recall_at_gt"]] for row, label in zip(rows, labels)]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in table_rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in table_rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    (out_dir / TABLE_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_grid(grid: ExperimentGrid, out_dir) -> list:
    """Execute every (cell, pair, repetition), checkpointing as it goes.

    Runs go pair by pair (then cell, then repetition), so only one pair's
    tables and profiles are held at a time.  Completed runs found in the
    checkpoint are not re-executed, so a second invocation over a finished
    grid only re-derives the result files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = LineStore(out_dir / RECORDS_NAME, _record)
    done = {(r["cell"], r["pair"], r["repetition"]) for r in records.read()}
    cells = [(cell, "|".join(_cell_labels(cell))) for cell in grid.cells()]

    for pair_index in range(len(grid.suite)):
        runs = [
            (cell, cid, repetition)
            for cell, cid in cells
            for repetition in range(grid.repetitions)
            if (cid, pair_index, repetition) not in done
        ]
        if runs:
            _run_pair(grid, pair_index, runs, records)

    rows = aggregate(grid, records.read())
    write_results(rows, out_dir)
    return rows
