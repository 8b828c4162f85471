"""Seeded Valentine-style table pairs for the colmatch benchmark.

Every pair is fabricated from one base table, the way Valentine does it
(Koutras et al., "Valentine: Evaluating Matching Techniques for Dataset
Discovery", ICDE 2021): the base rows are split between the tables, column
names are renamed with case/punctuation noise, abbreviations and typos,
and each side drops and reorders columns.  The ground truth is exact: a
source column matches the target column made from the same base column.

    python3 bench/gen.py --workload wide-pair --seed 0 --out DIR

writes the workload's CSVs and a manifest.json that lists its pairs.  All
randomness comes from random.Random seeded with strings, which hashes them
with SHA-512, so the files do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import shutil
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

# name parts: entity + attribute (+ qualifier); the attribute picks the kind
ENTITIES = (
    "customer", "order", "product", "invoice", "supplier", "employee",
    "account", "shipment", "store", "region", "payment", "contract",
    "vehicle", "patient", "doctor", "ticket", "campaign", "warehouse",
    "device", "branch", "policy", "claim", "course", "student", "vendor",
    "project", "member", "booking", "flight", "hotel", "asset", "license",
    "station", "sensor", "route", "parcel", "tenant", "lease", "loan", "grant",
)
ATTRIBUTES = {
    "id": "key", "code": "key", "number": "key", "email": "key",
    "name": "category", "status": "category", "type": "category",
    "category": "category", "city": "category", "country": "category",
    "level": "category", "channel": "category", "segment": "category",
    "amount": "float", "price": "float", "rate": "float", "balance": "float",
    "weight": "float", "score": "float", "discount": "float",
    "quantity": "int", "count": "int", "age": "int", "year": "int",
    "duration": "int", "rank": "int", "capacity": "int",
    "date": "date", "created": "date", "updated": "date", "expiry": "date",
    "flag": "binary", "active": "binary", "verified": "binary",
    "description": "text", "comment": "text", "note": "text", "address": "text",
}
QUALIFIERS = (
    "total", "average", "minimum", "maximum", "primary", "previous", "current",
    "gross", "net", "initial", "final", "monthly", "annual", "daily",
)
ABBREVIATIONS = {
    "customer": "cust", "order": "ord", "product": "prod", "invoice": "inv",
    "supplier": "supp", "employee": "emp", "account": "acct", "shipment": "shpmt",
    "payment": "pmt", "contract": "cntr", "vehicle": "veh", "patient": "pat",
    "warehouse": "whse", "campaign": "cmpgn", "department": "dept", "number": "num",
    "amount": "amt", "quantity": "qty", "description": "desc", "address": "addr",
    "average": "avg", "minimum": "min", "maximum": "max", "previous": "prev",
    "current": "curr", "category": "cat", "discount": "disc", "balance": "bal",
    "duration": "dur", "capacity": "cap", "comment": "cmt", "country": "ctry",
    "monthly": "mthly", "annual": "ann", "initial": "init", "verified": "vrfd",
    "license": "lic", "station": "stn", "student": "stu", "booking": "bkg",
}
WORDS = (
    "alpha bravo cedar delta ember falcon garnet harbor iris juniper kestrel "
    "lumen maple nectar onyx pepper quartz raven sierra tundra umber violet "
    "willow xenon yarrow zephyr amber basin cobalt dune echo fjord glacier "
    "heron indigo jasper krill lagoon meadow nimbus orchid prairie quill reef "
    "saffron thistle upland vale wren yonder zinc acorn birch canyon dahlia "
    "elm fern grove hazel islet jade kelp lotus moss north oak pine quarry "
    "ridge slate timber urchin valley wharf yew zenith arch bay cliff drift "
    "estuary field gulch hollow inlet knoll ledge marsh notch outcrop peak"
).split()
BINARY_PAIRS = (("Y", "N"), ("true", "false"), ("0", "1"), ("yes", "no"), ("M", "F"))
MISSING_SPELLINGS = ("", "NA", "null", "N/A")

_NORM_RE = re.compile(r"[^a-z0-9]")


def normalise(name: str) -> str:
    return _NORM_RE.sub("", name.lower())


def rng_for(*parts) -> random.Random:
    return random.Random("colmatch-bench|" + "|".join(str(p) for p in parts))


@dataclass(frozen=True)
class BaseColumn:
    words: tuple
    kind: str
    values: tuple  # one cell per base row, "" spellings included

    @property
    def name(self) -> str:
        return "_".join(self.words)


# Every workload's inputs have the same make-up whatever the seed: shares of
# kinds, of value shapes within a kind, of gapped columns and of rename
# edits are exact, and the seed only decides which column gets which.  That
# keeps a table's loading, sampling and matching difficulty steady across
# seeds.
KIND_SHARES = {
    "key": 0.10, "int": 0.15, "float": 0.20, "date": 0.10,
    "category": 0.25, "binary": 0.08, "text": 0.12,
}
SHAPES = {  # cycled over the columns of a kind
    "key": (None,),
    "int": (10, 100, 5000, 100_000),  # value range
    "float": (1.0, 50.0, 2000.0),  # value range, two decimals
    "date": (30, 365, 3650),  # days spanned
    "category": (3, 6, 12, 25),  # vocabulary size
    "binary": BINARY_PAIRS,
    "text": (3, 5, 7),  # most words per cell
}
GAPPED_SHARE = 0.35
GAP_RATES = (0.02, 0.05, 0.1, 0.2)
QUALIFIED_SHARE = 0.6


def exact_mix(shares: dict, n: int, rng: random.Random) -> list:
    """n labels in the given shares (largest remainder), shuffled."""
    counts = {label: int(share * n) for label, share in shares.items()}
    by_remainder = sorted(shares, key=lambda label: (counts[label] - shares[label] * n, label))
    for label in by_remainder[: n - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label in shares for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def _base_names(rng: random.Random, kinds) -> list:
    by_kind = {}
    for attribute, kind in sorted(ATTRIBUTES.items()):
        by_kind.setdefault(kind, []).append(attribute)
    qualified = exact_mix({True: QUALIFIED_SHARE, False: 1 - QUALIFIED_SHARE}, len(kinds), rng)
    names, seen = [], set()
    for kind, has_qualifier in zip(kinds, qualified):
        while True:
            words = [rng.choice(ENTITIES), rng.choice(by_kind[kind])]
            if has_qualifier:
                words.insert(1, rng.choice(QUALIFIERS))
            norm = normalise("".join(words))
            if norm not in seen:
                break
        seen.add(norm)
        names.append(tuple(words))
    return names


def _column_values(kind: str, shape, rng: random.Random, row_ids: range) -> list:
    if kind == "key":
        prefix = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(3))
        offset = rng.randrange(10_000, 90_000)
        return [f"{prefix}-{offset + r:07d}" for r in row_ids]
    if kind == "int":
        lo = rng.randrange(0, 1000)
        return [str(rng.randint(lo, lo + shape)) for _ in row_ids]
    if kind == "float":
        lo = rng.uniform(0, 500)
        return [f"{rng.uniform(lo, lo + shape):.2f}" for _ in row_ids]
    if kind == "date":
        start = date(2000, 1, 1) + timedelta(days=rng.randrange(0, 7000))
        return [(start + timedelta(days=rng.randrange(shape))).isoformat() for _ in row_ids]
    if kind == "binary":
        p = rng.uniform(0.2, 0.8)
        return [shape[0] if rng.random() < p else shape[1] for _ in row_ids]
    if kind == "category":
        vocab = [w.capitalize() if rng.random() < 0.5 else w for w in rng.sample(WORDS, shape)]
        weights = [1.0 / (i + 1) for i in range(len(vocab))]
        return rng.choices(vocab, weights=weights, k=len(row_ids))
    if kind == "text":
        return [" ".join(rng.choices(WORDS, k=rng.randint(3, shape))) for _ in row_ids]
    raise ValueError(f"unknown column kind {kind!r}")


def base_table(tag: str, n_columns: int, n_rows: int) -> list:
    """n_columns typed columns over n_rows rows, in the fixed make-up above."""
    rng = rng_for(tag, "schema")
    kinds = exact_mix(KIND_SHARES, n_columns, rng)
    names = _base_names(rng, kinds)
    n_plain = sum(kind != "key" for kind in kinds)
    gapped = iter(exact_mix({True: GAPPED_SHARE, False: 1 - GAPPED_SHARE}, n_plain, rng))
    seen_of_kind = {}
    gaps_given = 0
    columns = []
    for i, (kind, words) in enumerate(zip(kinds, names)):
        nth = seen_of_kind[kind] = seen_of_kind.get(kind, -1) + 1
        shape = SHAPES[kind][nth % len(SHAPES[kind])]
        column_rng = rng_for(tag, "column", i)
        values = _column_values(kind, shape, column_rng, range(n_rows))
        if kind != "key" and next(gapped):
            rate = GAP_RATES[gaps_given % len(GAP_RATES)]
            gaps_given += 1
            values = [
                column_rng.choice(MISSING_SPELLINGS) if column_rng.random() < rate else v
                for v in values
            ]
        columns.append(BaseColumn(words, kind, tuple(values)))
    return columns


# -- renaming -----------------------------------------------------------------

def _typo(word: str, rng: random.Random) -> str:
    if len(word) < 4:
        return word + word[-1]
    i = rng.randrange(1, len(word) - 1)
    edit = rng.randrange(4)
    if edit == 0:  # swap neighbours
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if edit == 1:  # drop a letter
        return word[:i] + word[i + 1 :]
    if edit == 2:  # double a letter
        return word[:i] + word[i] + word[i:]
    return word[:i] + rng.choice("aeiourstln") + word[i + 1 :]


def _abbreviate(word: str, rng: random.Random) -> str:
    if word in ABBREVIATIONS and rng.random() < 0.7:
        return ABBREVIATIONS[word]
    if len(word) <= 4:
        return word
    if rng.random() < 0.5:
        return word[: rng.randint(3, 4)]
    return word[0] + re.sub(r"[aeiou]", "", word[1:])


def _style(words, rng: random.Random) -> str:
    style = rng.randrange(7)
    if style == 0:
        return "_".join(words)
    if style == 1:
        return "_".join(words).upper()
    if style == 2:
        return words[0] + "".join(w.capitalize() for w in words[1:])
    if style == 3:
        return "".join(w.capitalize() for w in words)
    if style == 4:
        return "-".join(words)
    if style == 5:
        return ".".join(words)
    return " ".join(w.capitalize() for w in words)


# shares of the harder renames among the names that get more than case noise
EDIT_SHARES = {"abbreviate": 0.45, "typo": 0.35, "both": 0.20}


def _noisy_name(words, edit: str, rng: random.Random) -> str:
    words = list(words)
    if edit in ("abbreviate", "both"):
        for i in rng.sample(range(len(words)), rng.randint(1, len(words))):
            words[i] = _abbreviate(words[i], rng)
    if edit in ("typo", "both"):
        i = rng.randrange(len(words))
        words[i] = _typo(words[i], rng)
    return _style(words, rng)


def rename_all(columns, rng: random.Random, keep_share: float, taken=(), partner_norm=None) -> list:
    """One new name per base column, unique after normalisation.

    A keep_share of the columns get case/punctuation noise only; the rest
    get abbreviations and typos in EDIT_SHARES.  A name may not normalise to
    any name in `taken` except the column's own partner (`partner_norm[i]`),
    so the only pins are correct ones.
    """
    shares = {"style": keep_share, **{e: s * (1 - keep_share) for e, s in EDIT_SHARES.items()}}
    edits = exact_mix(shares, len(columns), rng)
    taken = set(taken)
    out = []
    for i, (col, edit) in enumerate(zip(columns, edits)):
        own = partner_norm[i] if partner_norm is not None else None
        name = None
        for _ in range(20):
            candidate = _noisy_name(col.words, edit, rng)
            norm = normalise(candidate)
            if norm not in taken or norm == own:
                name = candidate
                break
        if name is None:
            name = col.name + "_" + str(i)
            norm = normalise(name)
        taken.add(norm)
        out.append(name)
    return out


# -- writing ------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_table(path: Path, names, columns, row_ids) -> None:
    rows = [[col.values[r] for col in columns] for r in row_ids]
    _write_csv(path, names, rows)


def keep_columns(base, share: float, rng: random.Random) -> list:
    """Indices of `share` of the base columns, the same share of every kind."""
    by_kind = {}
    for i, col in enumerate(base):
        by_kind.setdefault(col.kind, []).append(i)
    kept = []
    for kind in sorted(by_kind):
        kept.extend(rng.sample(by_kind[kind], round(share * len(by_kind[kind]))))
    return sorted(kept)


def make_pair(out: Path, label: str, base, rng, rows, keep, target=None):
    """Write one source (and, unless `target` is given, its target) plus ground truth.

    `rows` = (source row ids, target row ids), `keep` = (source share, target
    share) of base columns.  `target` = (path, {base index: name}) reuses an
    already written standard target.
    """
    if target is None:
        t_idx = keep_columns(base, keep[1], rng)
        t_names = rename_all([base[i] for i in t_idx], rng, keep_share=0.6)
        order = list(range(len(t_idx)))
        rng.shuffle(order)
        t_idx = [t_idx[j] for j in order]
        t_names = [t_names[j] for j in order]
        target_path = out / f"{label}_target.csv"
        write_table(target_path, t_names, [base[i] for i in t_idx], rows[1])
        t_by_base = dict(zip(t_idx, t_names))
    else:
        target_path, t_by_base = target
    s_idx = keep_columns(base, keep[0], rng)
    t_norms = {i: normalise(name) for i, name in t_by_base.items()}
    s_names = rename_all(
        [base[i] for i in s_idx],
        rng,
        keep_share=0.3,
        taken=set(t_norms.values()),
        partner_norm=[t_norms.get(i) for i in s_idx],
    )
    order = list(range(len(s_idx)))
    rng.shuffle(order)
    s_idx = [s_idx[j] for j in order]
    s_names = [s_names[j] for j in order]
    source_path = out / f"{label}_source.csv"
    write_table(source_path, s_names, [base[i] for i in s_idx], rows[0])
    gt_path = out / f"{label}_gt.csv"
    gt_rows = [[s, t_by_base[i]] for i, s in zip(s_idx, s_names) if i in t_by_base]
    _write_csv(gt_path, ["source_column", "target_column"], gt_rows)
    return {"source": source_path.name, "target": target_path.name, "ground_truth": gt_path.name}


# -- workloads ----------------------------------------------------------------

# sizes of every workload's inputs; the README quotes these
WIDE_COLUMNS, WIDE_ROWS = 1250, 120
WIDE_KEEP = (0.88, 0.92)
MANY = {"n_columns": 40, "n_sources": 3, "source_rows": 2000, "target_rows": 1500, "keep": 0.85}
FT = {"n_columns": 80, "n_sources": 3, "source_rows": 250, "target_rows": 250, "keep": 0.88}


def _wide_pair(out: Path, seed: int) -> dict:
    base = base_table(f"wide|{seed}", WIDE_COLUMNS, WIDE_ROWS)
    rng = rng_for("wide", seed, "pair")
    rows = list(range(WIDE_ROWS))
    rng.shuffle(rows)
    cut = round(0.6 * WIDE_ROWS)
    return {"pairs": [make_pair(out, "wide", base, rng, (rows[:cut], rows[-cut:]), WIDE_KEEP)]}


def _standard_suite(out: Path, tag: str, seed: int, n_columns, n_sources, source_rows, target_rows, keep):
    """One standard target under canonical snake_case names, and renamed sources.

    Every table gets its own rows of the base table.
    """
    base = base_table(f"{tag}|{seed}", n_columns, target_rows + n_sources * source_rows)
    path = out / f"{tag}_target.csv"
    write_table(path, [c.name for c in base], base, range(target_rows))
    target = (path, {i: c.name for i, c in enumerate(base)})
    pairs = []
    for s in range(n_sources):
        start = target_rows + s * source_rows
        rows = (range(start, start + source_rows), None)
        rng = rng_for(tag, seed, "source", s)
        pairs.append(make_pair(out, f"{tag}{s}", base, rng, rows, (keep, None), target=target))
    return {"pairs": pairs}


WORKLOADS = {
    "wide-pair": _wide_pair,
    "many-to-one-llm": lambda out, seed: _standard_suite(out, "many", seed, **MANY),
    "finetune-grid": lambda out, seed: _standard_suite(out, "ft", seed, **FT),
}


def generate(workload: str, seed: int, out) -> dict:
    """Write the workload's inputs into a fresh `out` and return its manifest."""
    out = Path(out)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    manifest = {"workload": workload, "seed": seed, **WORKLOADS[workload](out, seed)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps(manifest))


if __name__ == "__main__":
    main()
