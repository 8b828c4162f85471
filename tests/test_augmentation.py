import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colmatch.retrieval as retrieval
from colmatch.augmentation import (
    AugmentationParseError,
    ClassMember,
    TrainingClass,
    build_augmentation_prompt,
    build_classes,
    load_classes,
    parse_augmentation_response,
    structural_variants,
    write_classes,
)
from colmatch.rerank_llm import LlmTransportError, RecordingLlmClient, ReplayLlmClient
from colmatch.sampling import SamplerConfig, sample_values
from colmatch.tables import Column, Table


class FakeClient:
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class TestPrompt:
    def test_prompt_blocks_and_rendering(self):
        prompt = build_augmentation_prompt("tumor_site", ["Lung", "Breast"])
        blocks = prompt.split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith(
            "Given the table column tumor_site with values [Lung, Breast], "
            "generate three alternative column names"
        )
        assert "underscores and abbreviations" in blocks[0]
        assert "synonyms, variants, or abbreviations" in blocks[0]
        assert "random numbers or dates appropriate" in blocks[0]
        assert blocks[1].startswith("Ensure that each set does not exceed 15 values.")
        assert "alternative_name_1, value1, value2, value3, ...;" in blocks[1]
        assert blocks[1].endswith("excludes additional information and quotations.")

    def test_empty_sample_renders_empty_brackets(self):
        prompt = build_augmentation_prompt("ghost", [])
        assert "Given the table column ghost with values []," in prompt


class TestParse:
    def test_two_segments(self):
        parsed = parse_augmentation_response(
            "tumor_site, Thyroidal, Ovarian; gene_segments, segment11"
        )
        assert parsed == [
            ("tumor_site", ["Thyroidal", "Ovarian"]),
            ("gene_segments", ["segment11"]),
        ]

    def test_whitespace_trimmed_everywhere(self):
        parsed = parse_augmentation_response("  a_name , v1 ,  v2 ;  b_name, v3 ")
        assert parsed == [("a_name", ["v1", "v2"]), ("b_name", ["v3"])]

    def test_empty_name_segments_dropped(self):
        parsed = parse_augmentation_response("; , orphan1, orphan2; real, v1")
        assert parsed == [("real", ["v1"])]

    def test_name_only_segment_has_no_values(self):
        assert parse_augmentation_response("lonely") == [("lonely", [])]

    def test_at_most_three_segments_kept(self):
        parsed = parse_augmentation_response("n1, a; n2, b; n3, c; n4, d; n5, e")
        assert [name for name, _ in parsed] == ["n1", "n2", "n3"]

    def test_values_truncated_to_fifteen(self):
        values = ", ".join(f"v{i}" for i in range(30))
        parsed = parse_augmentation_response(f"wide, {values}")
        assert len(parsed[0][1]) == 15
        assert parsed[0][1][-1] == "v14"

    @pytest.mark.parametrize("bad", ["", "   ", "\n\t", ";;;", " , a; , b"])
    def test_unusable_responses_raise(self, bad):
        with pytest.raises(AugmentationParseError):
            parse_augmentation_response(bad)


class TestStructuralVariants:
    def test_deterministic_for_fixed_seed(self):
        col = Column("exon_count", ("12", "7", "33", "2", "19"))
        assert structural_variants(col, 3, seed=5) == structural_variants(col, 3, seed=5)

    def test_seed_changes_output(self):
        col = Column("exon_count", tuple(str(i) for i in range(10)))
        a = structural_variants(col, 4, seed=1)
        b = structural_variants(col, 4, seed=2)
        assert a != b

    def test_values_are_subset_of_column_values(self):
        col = Column("city", ("Oslo", "Lima", "Kyiv", "Pune", "Reno"))
        for _, values in structural_variants(col, 10, seed=3):
            assert set(values) <= set(col.values)
            assert len(values) == len(set(values))
            assert len(values) >= 3  # ceil(0.5 * 5)

    def test_name_edits_stay_close(self):
        col = Column("patient_id", tuple(str(i) for i in range(8)))
        for name, _ in structural_variants(col, 20, seed=11):
            assert len(name) >= len("patient_id") - 2
            # replacement alphabet is lowercase + underscore
            assert all(c.isdigit() or c.islower() or c == "_" for c in name)

    def test_single_char_name_never_emptied(self):
        col = Column("x", ("1", "2", "3", "4"))
        for name, _ in structural_variants(col, 30, seed=7):
            assert len(name) >= 1

    def test_no_variant_identical_to_anchor_on_rich_column(self):
        col = Column("gene", tuple(f"g{i}" for i in range(12)))
        anchor = (col.name, list(col.values))
        for variant in structural_variants(col, 25, seed=13):
            assert variant != anchor

    def test_single_value_column_variants_keep_that_value(self):
        col = Column("flag", ("y",))
        for name, values in structural_variants(col, 5, seed=1):
            assert values == ["y"]

    def test_missing_values_excluded_from_variants(self):
        col = Column("status", ("open", None, "closed", None))
        for _, values in structural_variants(col, 6, seed=2):
            assert None not in values

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            structural_variants(Column("a", ("1",)), -1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6), min_size=1, max_size=8, unique=True),
        st.integers(0, 2**32),
    )
    def test_variant_count_and_subset_property(self, values, seed):
        col = Column("col_name", tuple(values))
        out = structural_variants(col, 3, seed=seed)
        assert len(out) == 3
        for name, subset in out:
            assert name
            assert set(subset) <= set(values)


def small_table():
    return Table(
        "target",
        (
            Column("tumor_site", ("Lung", "Breast", "Colon", "Skin")),
            Column("gene_segments", ("segment1", "segment2", "segment3")),
        ),
    )


class TestBuildClasses:
    def test_structural_only_without_client(self, caplog):
        with caplog.at_level(logging.WARNING):
            classes = build_classes(small_table(), seed=4)
        assert [c.class_id for c in classes] == [0, 1]
        assert any("structural only" in r.message for r in caplog.records)
        for cls, col in zip(classes, small_table().columns):
            assert cls.anchor.name == col.name
            assert cls.anchor.origin == "anchor"
            assert len(cls.members) == 3  # anchor + 2 structural
            assert {m.origin for m in cls.members[1:]} == {"structural"}

    def test_class_size_six_with_llm(self):
        client = FakeClient(
            [
                "site_of_tumor, Thyroidal, Ovarian; tumour_loc, Hepatic; neoplasm_site, Renal",
                "gene_segs, segmentA, segmentB; dna_segments, segmentC; seg_list, segmentD",
            ]
        )
        classes = build_classes(small_table(), seed=0, client=client, max_concurrent=1)
        for cls in classes:
            assert len(cls.members) == 6
            origins = [m.origin for m in cls.members]
            assert origins == ["anchor", "structural", "structural", "semantic", "semantic", "semantic"]

    def test_anchor_values_use_sampler(self):
        # 12 distinct values, sample_size 10 keeps the priority top 10
        col = Column("wide", tuple(f"v{i:02d}" for i in range(12)))
        classes = build_classes(Table("t", (col,)), seed=1)
        assert len(classes[0].anchor.values) == 10

    def test_anchors_are_sampled_in_hash_batches_as_column_by_column(self, monkeypatch):
        # five columns of 1000 values, each sharing half with the next: two batches
        columns = tuple(
            Column(f"c{i}", tuple(f"v{j}" for j in range(500 * i, 500 * i + 1000)))
            for i in range(5)
        )
        batches = []

        def recording(seed, values, original=retrieval.hash_units):
            batches.append(len(values))
            return original(seed, values)

        monkeypatch.setattr(retrieval, "hash_units", recording)
        classes = build_classes(Table("t", columns), n_structural=0, seed=3)
        assert [c.anchor.values for c in classes] == [
            tuple(sample_values(col, SamplerConfig(seed=3))) for col in columns
        ]
        assert len(batches) == 2 and max(batches) > retrieval.HASH_BATCH

    def test_parse_failures_retry_three_times_then_structural_only(self, caplog):
        client = FakeClient([";;", " , a, b", "   ", "unused, v"])
        with caplog.at_level(logging.WARNING):
            classes = build_classes(
                Table("t", (Column("only", ("a", "b", "c")),)),
                seed=0,
                client=client,
                max_concurrent=1,
            )
        assert len(client.prompts) == 3
        assert len(classes[0].members) == 3
        assert any("structural variants only" in r.message for r in caplog.records)

    @pytest.mark.parametrize("width", [0, -3])
    def test_a_width_below_one_is_refused(self, width):
        client = FakeClient([])
        with pytest.raises(ValueError, match="max_concurrent must be >= 1"):
            build_classes(small_table(), seed=0, client=client, max_concurrent=width)
        assert client.prompts == []

    def test_transport_errors_also_fall_back(self):
        client = FakeClient([LlmTransportError("down")] * 3)
        classes = build_classes(
            Table("t", (Column("only", ("a", "b")),)), seed=0, client=client, max_concurrent=1
        )
        assert {m.origin for m in classes[0].members} == {"anchor", "structural"}

    def test_retry_succeeds_midway(self):
        client = FakeClient([LlmTransportError("blip"), "alt_name, x, y"])
        classes = build_classes(
            Table("t", (Column("only", ("a", "b")),)), seed=0, client=client, max_concurrent=1
        )
        semantic = [m for m in classes[0].members if m.origin == "semantic"]
        assert [(m.name, list(m.values)) for m in semantic] == [("alt_name", ["x", "y"])]

    def test_n_semantic_caps_parsed_segments(self):
        client = FakeClient(["n1, a; n2, b; n3, c"])
        classes = build_classes(
            Table("t", (Column("only", ("a", "b")),)),
            n_semantic=1,
            seed=0,
            client=client,
            max_concurrent=1,
        )
        semantic = [m for m in classes[0].members if m.origin == "semantic"]
        assert [m.name for m in semantic] == ["n1"]

    def test_semantic_variant_equal_to_anchor_gets_value_shuffle(self):
        # reply echoes the anchor exactly; values must come back reordered
        client = FakeClient(["pair, a, b, c, d, e, f"])
        classes = build_classes(
            Table("t", (Column("pair", ("a", "b", "c", "d", "e", "f")),)),
            n_structural=0,
            seed=3,
            client=client,
            max_concurrent=1,
        )
        semantic = [m for m in classes[0].members if m.origin == "semantic"]
        assert len(semantic) == 1
        assert semantic[0].name == "pair"
        assert sorted(semantic[0].values) == ["a", "b", "c", "d", "e", "f"]
        assert list(semantic[0].values) != list(classes[0].anchor.values)

    def test_deterministic_given_scripted_client(self):
        def run():
            client = FakeClient(["alt, p, q; other, r"] * 2)
            return build_classes(small_table(), seed=9, client=client, max_concurrent=2)

        assert run() == run()

    def test_transcript_records_prompt_response_pairs(self, tmp_path):
        path = tmp_path / "aug.jsonl"
        client = RecordingLlmClient(FakeClient(["alt, p, q"]), path)
        build_classes(
            Table("t", (Column("only", ("a", "b")),)),
            seed=0,
            client=client,
            max_concurrent=1,
        )
        lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 1
        assert lines[0]["prompt"].startswith("Given the table column only")
        assert lines[0]["response"] == "alt, p, q"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            build_classes(Table("t", ()), seed=0)


# write_classes output for the table and replies in
# TestClassFile.test_bytes_for_a_fixed_table_and_seed
FROZEN_CLASSES = (
    '{"class_id": 0, "members": ['
    '{"name": "flag_89661", "values": ["yes", "no"], "origin": "anchor"}, '
    '{"name": "flag_89661", "values": ["no"], "origin": "structural"}, '
    '{"name": "flag_89661", "values": ["yes", "no"], "origin": "structural"}, '
    '{"name": "is_flagged", "values": ["Y", "N"], "origin": "semantic"}, '
    '{"name": "flag_yn", "values": ["true", "false"], "origin": "semantic"}]}\n'
    '{"class_id": 1, "members": ['
    '{"name": "tumor_site", "values": ["Lung", "Breast", "Colon", "Skin", "Brain", "Liver", "Bone"], "origin": "anchor"}, '
    '{"name": "tuoor_yite", "values": ["Colon", "Lung", "Brain", "Skin"], "origin": "structural"}, '
    '{"name": "tumor_site", "values": ["Colon", "Breast", "Brain", "Lung", "Bone", "Liver"], "origin": "structural"}, '
    '{"name": "tumour_location", "values": ["Pulmonary", "Mammary"], "origin": "semantic"}, '
    '{"name": "site_of_tumor", "values": ["Hepatic"], "origin": "semantic"}]}\n'
    '{"class_id": 2, "members": ['
    '{"name": "stage", "values": ["III", "I", "II", "IV"], "origin": "anchor"}, '
    '{"name": "ltage", "values": ["III", "II", "I", "IV"], "origin": "structural"}, '
    '{"name": "stan", "values": ["III", "IV", "I", "II"], "origin": "structural"}, '
    '{"name": "stage", "values": ["I", "II", "IV", "III"], "origin": "semantic"}, '
    '{"name": "tumor_stage", "values": ["1", "2", "3", "4"], "origin": "semantic"}]}\n'
)


class TestClassFile:
    def test_round_trip(self, tmp_path):
        classes = build_classes(small_table(), seed=2)
        path = tmp_path / "classes.jsonl"
        write_classes(classes, path)
        assert load_classes(path) == classes

    def test_file_is_jsonl_with_expected_fields(self, tmp_path):
        classes = build_classes(small_table(), seed=2)
        path = tmp_path / "classes.jsonl"
        write_classes(classes, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"class_id", "members"}
        assert record["class_id"] == 0
        assert set(record["members"][0]) == {"name", "values", "origin"}
        assert record["members"][0]["origin"] == "anchor"

    def test_write_failing_partway_leaves_the_old_file_intact(self, tmp_path):
        classes = build_classes(small_table(), seed=2)
        path = tmp_path / "classes.jsonl"
        write_classes(classes, path)
        before = path.read_bytes()

        def first_then_crash():
            yield classes[0]
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError, match="crash mid-write"):
            write_classes(first_then_crash(), path)
        assert path.read_bytes() == before
        assert load_classes(path) == classes
        assert [p.name for p in tmp_path.iterdir()] == ["classes.jsonl"]

    def test_member_origin_validated(self):
        with pytest.raises(ValueError):
            ClassMember("a", ("1",), "mystery")

    def test_first_member_must_be_anchor(self):
        with pytest.raises(ValueError):
            TrainingClass(0, (ClassMember("a", ("1",), "structural"),))

    def test_bytes_for_a_fixed_table_and_seed(self, tmp_path):
        # At seed 7 the second structural variant of flag_89661 equals its
        # anchor on all six draws and takes the extra value shuffle; the
        # replayed reply for "stage" echoes its anchor, so that semantic
        # variant is reshuffled.  The frozen bytes pin the seeded draws of
        # all three value shuffles and of the name edits.
        table = Table(
            "t",
            (
                Column("flag_89661", ("yes", "no", "yes", "no")),
                Column("tumor_site", ("Lung", "Breast", "Colon", "Skin", "Liver", "Bone", "Brain")),
                Column("stage", ("I", "II", "III", "IV", "II", "I")),
            ),
        )
        anchors = [c.anchor for c in build_classes(table, n_semantic=0, seed=7)]
        replies = [
            "is_flagged, Y, N; flag_yn, true, false",
            "tumour_location, Pulmonary, Mammary; site_of_tumor, Hepatic",
            f"stage, {', '.join(anchors[2].values)}; tumor_stage, 1, 2, 3, 4",
        ]
        transcript = tmp_path / "replay.jsonl"
        transcript.write_text(
            "".join(
                json.dumps({"prompt": build_augmentation_prompt(a.name, a.values), "response": r})
                + "\n"
                for a, r in zip(anchors, replies)
            ),
            encoding="utf-8",
        )
        classes = build_classes(table, seed=7, client=ReplayLlmClient(transcript), max_concurrent=1)
        path = tmp_path / "classes.jsonl"
        write_classes(classes, path)
        assert path.read_text(encoding="utf-8") == FROZEN_CLASSES
