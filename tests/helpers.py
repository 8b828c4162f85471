"""Shared fixtures-by-hand for CLI / pipeline / ablation tests."""

import csv
import tracemalloc

import numpy as np

from colmatch.embedding import DEFAULT_DIMENSION, EmbeddingProviderConfig, HashProvider
from colmatch.tables import Column, Table


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def hash_vector(text, dimension=DEFAULT_DIMENSION):
    """The hash provider's vector for one text at `dimension`."""
    return HashProvider(EmbeddingProviderConfig(dimension=dimension)).embed([text])[0]


def identity_pair(directory, n_cols=3, n_rows=20, decorate_source=True):
    """Source/target/gt CSVs where source names differ only by case and punctuation."""
    target_names = [f"col_{i}" for i in range(n_cols)]
    source_names = [f"Col {i}" for i in range(n_cols)] if decorate_source else list(target_names)
    rows = [[f"v{i}_{r}" for i in range(n_cols)] for r in range(n_rows)]
    source = write_csv(directory / "source.csv", source_names, rows)
    target = write_csv(directory / "target.csv", target_names, rows)
    gt = write_csv(
        directory / "gt.csv",
        ["source_column", "target_column"],
        [[source_names[i], target_names[i]] for i in range(n_cols)],
    )
    return source, target, gt


def unit_vector_pair(n, m, seed=0, dimension=64):
    """Tables "s" and "t" of n and m valueless columns, then seeded random unit vectors for each."""
    rng = np.random.default_rng(seed)
    tables, vectors = [], []
    for name, width in (("s", n), ("t", m)):
        tables.append(Table(name, tuple(Column(f"{name}{i}", ()) for i in range(width))))
        drawn = rng.standard_normal((width, dimension))
        vectors.append(drawn / np.linalg.norm(drawn, axis=1, keepdims=True))
    return (*tables, *vectors)


def transient_bytes(call):
    """The peak bytes tracemalloc sees allocated while call() runs, above those at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class ScriptedLlmClient:
    """Answers every prompt by scoring the listed target columns 0.9, 0.8, ...

    Reads the candidate names back out of the prompt's Target Columns block,
    so it works for any source column without pre-scripting.
    """

    def complete(self, prompt: str) -> str:
        lines = prompt.splitlines()
        start = len(lines) - 1 - lines[::-1].index("Target Columns:")
        names = []
        for line in lines[start + 1 :]:
            if not line.startswith("Column: "):
                break
            names.append(line[len("Column: ") : line.index(", Sample values:")])
        return "; ".join(f"{name}({max(0.9 - 0.1 * i, 0.01):.2f})" for i, name in enumerate(names))
