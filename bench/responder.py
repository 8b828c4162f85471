"""Scripted stand-in for the chat endpoint behind colmatch's LLM reranker.

It is passed to run_pipeline as `llm_client`, so no network is involved.
Its answer to a prompt depends only on (workload seed, source column name,
attempt number) and the candidate names in the prompt: it scores the sent
candidates from the ground truth with seeded noise, omits a few wrong ones,
and returns malformed text for a seeded share of attempts.  The answers
therefore do not depend on thread order or on the sampled values, and the
colmatch retry and fallback paths both run.
"""

from __future__ import annotations

import random
import threading
import time

RETRY_ATTEMPTS = 3  # colmatch's fixed attempts per column
MALFORMED_SHARE = 0.3
OMIT_SHARE = 0.2
LATENCY_SECONDS = 0.002

# each takes the candidate names and returns text the response grammar rejects
MALFORMED = (
    lambda names: "",
    lambda names: "Here are the similarity scores you asked for.",
    lambda names: f"{names[0]}(0.9",
    lambda names: "; ".join(f"{n}: 0.50" for n in names),
)


def _block_name(line: str) -> str:
    return line[len("Column: ") : line.index(", Sample values: [")]


def prompt_columns(prompt: str):
    """(source name, [candidate names]) from the last input block of a prompt."""
    lines = prompt.splitlines()
    start = len(lines) - 1 - lines[::-1].index("Source Column:")
    source = _block_name(lines[start + 1])
    names = []
    for line in lines[start + 3 :]:
        if not line.startswith("Column: "):
            break
        names.append(_block_name(line))
    return source, names


class ScriptedResponder:
    """Answers LLM reranker prompts for one table pair and records what it said.

    `truth` maps each source column to its ground-truth targets.  `log`
    keeps, per source column, the scored (name, score) list of each attempt
    in attempt order, or None for a malformed answer.
    """

    def __init__(self, seed: int, truth: dict) -> None:
        self.seed = seed
        self.truth = truth
        self.log = {}
        self.calls = 0
        self.wait_s = 0.0
        self.prompt_bytes = 0
        self.fallbacks = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        source, names = prompt_columns(prompt)
        with self._lock:
            attempt = len(self.log.setdefault(source, []))
            self.log[source].append(None)
            self.calls += 1
            self.prompt_bytes += len(prompt.encode("utf-8"))
        started = time.perf_counter()
        time.sleep(LATENCY_SECONDS)
        waited = time.perf_counter() - started
        text, scored = self.answer(source, names, attempt)
        with self._lock:
            self.wait_s += waited
            self.log[source][attempt] = scored
            if scored is None and attempt == RETRY_ATTEMPTS - 1:
                self.fallbacks += 1
        return text

    def answer(self, source: str, names: list, attempt: int):
        rng = random.Random(f"responder|{self.seed}|{source}|{attempt}")
        if rng.random() < MALFORMED_SHARE:
            return rng.choice(MALFORMED)(names), None
        wanted = self.truth.get(source, set())
        scored = []
        for i, name in enumerate(names):
            draw = random.Random(f"responder|{self.seed}|{source}|{name}|{attempt}")
            if name in wanted:
                score = 0.80 + 0.19 * draw.random()
            elif i > 0 and draw.random() < OMIT_SHARE:
                continue
            else:
                score = 0.05 + 0.60 * draw.random()
            scored.append((name, float(f"{score:.2f}")))
        scored.sort(key=lambda entry: (-entry[1], entry[0]))
        return "; ".join(f"{name}({score:.2f})" for name, score in scored), scored
