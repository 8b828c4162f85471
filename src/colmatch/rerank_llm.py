"""LLM-based reranking of retrieved candidates.

Each source column is sent to a chat-completion endpoint together with its
top candidates, rendered through a fixed four-block prompt.  The response
must follow the strict "name(score); ..." grammar; parsing is attempted up
to three times (transport errors included) before the column falls back to
its embedding scores.  Candidates the model did not score follow the scored
ones in retrieval order, strictly below the model's lowest score, by
`retrieval.place_below`: the same rule that places the bipartite reranker's
non-assigned candidates.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .embedding import post_json
from .linestore import LineStore
from .retrieval import MatchList, place_below

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 20
RETRY_ATTEMPTS = 3
API_KEY_ENV = "LLM_API_KEY"
REQUEST_TIMEOUT_SECONDS = 60.0
DEFAULT_MAX_CONCURRENT = 4

INSTRUCTION_BLOCK = (
    "From a score of 0.00 to 1.00, judge the similarity of the candidate "
    "column in the source table to each target column in the target table. "
    "Each column is represented by its name and a sample of its respective "
    "values, if available."
)

ONE_SHOT_BLOCK = (
    "Example:\n"
    "Candidate Column:\n"
    "Column: EmpID, Sample values: [100, 101, 102]\n"
    "Target Columns:\n"
    "Column: WorkerID, Sample values: [100, 101, 102]\n"
    "Column: EmpCode, Sample values: [00A, 00B, 00C]\n"
    'Column: StaffName, Sample values: ["Alice", "Bob", "Charlie"]\n'
    "Response: WorkerID(0.95); EmpCode(0.30); StaffName(0.05)"
)

FORMAT_BLOCK = (
    "Provide the name of each target column followed by its similarity "
    "score in parentheses, formatted to two decimals, and separated by "
    "semicolons. Rank the column-score pairs in descending order. Exclude "
    "additional information and quotations."
)

# one "name(score)" entry: the score is the entry's last parenthesized number, so a
# name may hold parentheses ("weight (kg)(0.90)"), but not ";"
_ENTRY_RE = re.compile(r"\s*([^;]*?)\s*\((\d+(?:\.\d{1,2})?)\)\s*")


class LlmTransportError(RuntimeError):
    """Request failed or the response envelope was malformed."""


class LlmParseError(ValueError):
    """Response content did not match the required grammar."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str = "default"
    temperature: float = 0.0
    max_concurrent: int = DEFAULT_MAX_CONCURRENT

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise ValueError("llm endpoint required")
        if not 0 <= self.temperature < float("inf"):  # false for NaN too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


def column_line(name: str, values: Sequence[str]) -> str:
    return f"Column: {name}, Sample values: [{', '.join(values)}]"


def build_prompt(source, candidates) -> str:
    """Assemble the four prompt blocks for one source column.

    `source` is a (name, sample values) pair, `candidates` an ordered list
    of such pairs.  Blocks are joined by blank lines; column renderings use
    the same comma-joined value style as the one-shot example.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    source_name, source_values = source
    input_block = "\n".join(
        ["Source Column:", column_line(source_name, source_values), "Target Columns:"]
        + [column_line(name, values) for name, values in candidates]
        + ["Response:"]
    )
    return "\n\n".join([INSTRUCTION_BLOCK, ONE_SHOT_BLOCK, FORMAT_BLOCK, input_block])


def parse_response(text: str):
    """Parse "name(score); name(score); ..." into (name, score) pairs.

    Scores allow at most two fraction digits and clamp into [0, 1].  The
    result is re-sorted by score descending (stable, so ties keep the
    model's order) even when the model ignored the requested ordering.
    """
    if text is None or not text.strip():
        raise LlmParseError("empty response")
    entries = []
    for segment in text.split(";"):
        match = _ENTRY_RE.fullmatch(segment)
        if match is None:
            raise LlmParseError(f"unparseable entry: {segment.strip()[:60]!r}")
        entries.append((match.group(1), min(float(match.group(2)), 1.0)))
    if not entries:
        raise LlmParseError("no entries in response")
    entries.sort(key=lambda entry: -entry[1])
    return entries


class HttpLlmClient:
    """Single-attempt chat-completion client; retry policy lives upstream."""

    def __init__(self, config: LlmConfig) -> None:
        self.config = config

    def complete(self, prompt: str) -> str:
        headers = {}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        try:
            reply = post_json(self.config.endpoint, payload, REQUEST_TIMEOUT_SECONDS, headers)
            content = reply["choices"][0]["message"]["content"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            raise LlmTransportError(
                f"llm endpoint {self.config.endpoint}: {exc}"
            ) from exc
        if not isinstance(content, str):
            raise LlmTransportError(
                f"llm endpoint {self.config.endpoint}: non-text message content"
            )
        return content


def _exchange(line: str):
    """(prompt, response) of a transcript line holding {"prompt": str, "response": str}, else a ValueError."""
    record = json.loads(line)
    if not (isinstance(record, dict) and all(isinstance(record.get(k), str) for k in ("prompt", "response"))):
        raise ValueError('a transcript line must hold {"prompt": string, "response": string}')
    return record["prompt"], record["response"]


class ReplayLlmClient:
    """Replays recorded responses from a JSONL transcript.

    Each line is {"prompt": .., "response": ..}, both strings; repeated
    prompts are served in recording order, re-serving the last response
    when exhausted.  Bytes after the last newline, torn by a crashed
    recording, are ignored; a complete bad line is a ValueError naming the
    path and line.  An unknown prompt raises LlmTransportError, which
    upstream treats like any failed attempt.
    """

    def __init__(self, path) -> None:
        self._responses = {}
        self._cursor = {}
        self._lock = threading.Lock()
        store = LineStore(path, _exchange)
        if not store.path.is_file():
            raise FileNotFoundError(f"replay transcript not found: {path}")
        for prompt, response in store.read():
            self._responses.setdefault(prompt, []).append(response)

    def complete(self, prompt: str) -> str:
        with self._lock:
            queue = self._responses.get(prompt)
            if not queue:
                raise LlmTransportError("no recorded response for prompt")
            i = self._cursor.get(prompt, 0)
            self._cursor[prompt] = i + 1
        return queue[min(i, len(queue) - 1)]


class RecordingLlmClient:
    """Wraps a client and appends successful exchanges to a JSONL transcript.

    Bytes after the last newline, torn by a crashed recording, are cut off
    before the first new exchange is appended; a complete bad line raises.
    """

    def __init__(self, inner, path) -> None:
        self.inner = inner
        self._store = LineStore(path, _exchange)
        self._store.read()
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        response = self.inner.complete(prompt)
        record = json.dumps({"prompt": prompt, "response": response}, ensure_ascii=False)
        with self._lock:
            self._store.append(record)
        return response


def complete_with_retries(client, prompt: str, parse, subject: str):
    """parse(client.complete(prompt)), asked up to RETRY_ATTEMPTS times.

    A transport or parse error costs one attempt and is logged at debug
    level with `subject`; None means every attempt failed.
    """
    for attempt in range(RETRY_ATTEMPTS):
        try:
            return parse(client.complete(prompt))
        except (LlmTransportError, LlmParseError) as exc:
            log.debug("attempt %d for %r failed: %s", attempt + 1, subject, exc)
    return None


def ask_each(client, prompts: dict, parse, max_concurrent: int) -> list:
    """complete_with_retries for each {subject: prompt} item, in prompt order.

    At most `max_concurrent` requests are in flight at once.
    """
    if max_concurrent < 1:
        raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
    if not prompts:
        return []

    def ask(subject):
        return complete_with_retries(client, prompts[subject], parse, subject)

    with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
        return list(pool.map(ask, prompts))


def _merge_scores(names, targets, scores, n_send, parsed):
    """One list's (target, score) entries: the model's scores first, then the leftovers placed below them.

    `targets` index `names`; the first n_send of them were sent to the model.
    """
    sent = {names[t]: t for t in targets[:n_send]}
    scored = {}  # target -> llm score, in parse order
    for name, score in parsed:
        if name in sent:  # unknown names ignored; first occurrence wins on repeats
            scored.setdefault(sent[name], score)
    if not scored:  # every attempt failed, or no name matched: embedding scores stand
        return list(zip(targets, scores))
    # leftovers: candidates the model omitted plus the not-sent tail, in
    # retrieval order below the model's lowest score (parse order is descending)
    leftovers = [(t, score) for t, score in zip(targets, scores) if t not in scored]
    placed = place_below([score for _, score in leftovers], list(scored.values())[-1]).tolist()
    return list(scored.items()) + [(t, score) for (t, _), score in zip(leftovers, placed)]


def rerank_llm(
    matches: MatchList,
    source_samples,
    target_samples,
    config: Optional[LlmConfig] = None,
    n_send: int = DEFAULT_TOP_K,
    client=None,
) -> MatchList:
    """Re-score the top n_send candidates of every source column via the LLM.

    Each list leads with the targets the model scored, with its scores in
    descending order; the rest follow in retrieval order, placed below them
    by `retrieval.place_below`.  A column whose attempts all fail keeps its list.

    `source_samples` / `target_samples` map column names to the sampled
    values used in the prompt renderings.  A custom `client` (anything with
    complete(prompt) -> str) overrides the HTTP client, e.g. for replay.
    """
    if n_send < 1:
        raise ValueError("n_send must be >= 1")
    if client is None:
        if config is None:
            raise ValueError("llm endpoint required")
        client = HttpLlmClient(config)
    max_concurrent = config.max_concurrent if config is not None else DEFAULT_MAX_CONCURRENT

    names, offsets = matches.targets, matches.offsets.tolist()
    target, score = matches.target.tolist(), matches.score.tolist()
    lists = {s: (target[lo:hi], score[lo:hi]) for s, lo, hi in zip(matches.sources, offsets, offsets[1:])}
    prompts = {}
    for source_name, (targets, _) in lists.items():
        if targets:
            prompts[source_name] = build_prompt(
                (source_name, source_samples.get(source_name, [])),
                [(names[t], target_samples.get(names[t], [])) for t in targets[:n_send]],
            )
            log.debug("rerank prompt for %r: ~%d tokens", source_name, len(prompts[source_name].split()))
    # read here, not bound at import: bench/tracing.py replaces parse_response to count parse failures
    answers = dict(zip(prompts, ask_each(client, prompts, parse_response, max_concurrent)))
    merged = [_merge_scores(names, *lists[s], n_send, answers.get(s) or ()) for s in lists]
    flat = [entry for entries in merged for entry in entries]
    return matches.reranked([len(m) for m in merged], [t for t, _ in flat], [score for _, score in flat])
