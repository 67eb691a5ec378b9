"""Parser, vocabulary, candidate, normalization, and fold tests on
hand-built fixtures."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bioie import corpus
from bioie.corpus import (
    CorpusFormatError,
    Document,
    EntityMention,
    PAD_ID,
    PAD_TOKEN,
    RelationInstance,
    Token,
    UNK_ID,
    attach_dependencies,
    build_vocabulary,
    generate_candidates,
    load_pretrained_vectors,
    make_folds,
    normalize_corpus,
    normalize_length,
    parse_chemprot,
    parse_pathology_records,
    parse_pubtator,
    synth_corpus,
    tokenize,
    write_records,
)

PUBTATOR_FIXTURE = """\
100|t|Aspirin causes nausea.
100|a|We report nausea after aspirin exposure in two patients.
100\t0\t7\tAspirin\tChemical\tD001241
100\t15\t21\tnausea\tDisease\tD009325
100\t33\t39\tnausea\tDisease\tD009325
100\tCID\tD001241\tD009325
"""


@st.composite
def mutated(draw, lines, sep="\t"):
    """`lines` with one line deleted, cut short, or with one column
    (separated by `sep`) dropped or replaced by 'nan', 'x' or ''."""
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(["delete", "truncate", "drop", "replace"]))
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "truncate":
        changed = line[:draw(st.integers(0, max(len(line) - 1, 0)))]
    else:
        cols = line.split(sep)
        j = draw(st.integers(0, len(cols) - 1))
        if kind == "drop":
            del cols[j]
        else:
            cols[j] = draw(st.sampled_from(["nan", "x", ""]))
        changed = sep.join(cols)
    return lines[:i] + [changed] + lines[i + 1:]


def json_paths(value, path=()):
    """The path to every value inside a parsed JSON value, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_record(draw, line):
    """One JSON record line with one object key deleted, one value
    replaced by a value of another JSON type (NaN included), or the line
    cut short."""
    kind = draw(st.sampled_from(["delete", "retype", "truncate"]))
    if kind == "truncate":
        return line[:draw(st.integers(1, len(line) - 1))]
    rec = json.loads(line)
    path = draw(st.sampled_from([p for p in json_paths(rec)
                                 if kind == "retype" or isinstance(p[-1], str)]))
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in (None, True, "x", 2.5, [], {}, math.nan)
             if type(v) is not type(old)]))
    return json.dumps(rec)


def assert_names_a_file_and_line(err, *paths):
    files = "|".join(re.escape(str(p)) for p in paths)
    assert re.match(rf"({files}) line [1-9][0-9]*: ", str(err)), str(err)


# One file per test function, rewritten by every example.
MUTATION_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def make_doc(text, mention_specs, doc_id="d0", source="synthetic"):
    tokens = tokenize(text)
    mentions = []
    for i, (kind, start, end) in enumerate(mention_specs):
        hit = [t.index for t in tokens if t.char_start < end and t.char_end > start]
        mentions.append(EntityMention(f"m{i}", kind, (hit[0], hit[-1])))
    doc = Document(doc_id, source, text, tokens, mentions)
    return doc


class TestTokenize:
    def test_offsets_preserved(self):
        toks = tokenize("Aspirin causes nausea.")
        assert [t.surface for t in toks] == ["Aspirin", "causes", "nausea", "."]
        assert toks[0].char_start == 0 and toks[0].char_end == 7
        assert toks[3].char_start == 21

    def test_indices_contiguous(self):
        toks = tokenize("a b-c d")
        assert [t.index for t in toks] == list(range(len(toks)))


class TestPubtator:
    def test_hand_built_fixture(self, tmp_path):
        path = tmp_path / "cdr.txt"
        path.write_text(PUBTATOR_FIXTURE)
        docs, instances = parse_pubtator(path)
        assert len(docs) == 1
        assert len(docs[0].mentions) == 3
        # 1 chemical x 2 diseases, both pairs CID-positive by normalized id
        assert len(instances) == 2
        assert all(i.label == 1 for i in instances)
        assert docs[0].text.startswith("Aspirin causes nausea. We report")

    def test_single_positive_candidate(self, tmp_path):
        fixture = ("7|t|Drugx causes fever.\n"
                   "7\t0\t5\tDrugx\tChemical\tD111\n"
                   "7\t13\t18\tfever\tDisease\tD222\n"
                   "7\tCID\tD111\tD222\n")
        path = tmp_path / "one.txt"
        path.write_text(fixture)
        docs, instances = parse_pubtator(path)
        assert len(docs) == 1 and len(docs[0].mentions) == 2
        assert len(instances) == 1 and instances[0].label == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        docs, instances = parse_pubtator(path)
        assert docs == [] and instances == []

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("9|t|Title here.\n9\tnot-a-mention\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            parse_pubtator(path)

    def test_offsets_outside_text(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("9|t|Tiny.\n9\t0\t999\tTiny\tChemical\tD1\n")
        with pytest.raises(CorpusFormatError, match="outside"):
            parse_pubtator(path)

    @pytest.mark.parametrize("lines, lineno, message", [
        (["2|x|Fever is bad."], 4, "expected 'id|t|title'"),
        (["2|t|Fever is bad.", "3|a|An abstract."], 5, "abstract id 3 != 2"),
        (["2|t|Fever is bad.", "3\tCID\tD1\tD2"], 5, "relation id 3 != 2"),
        (["2|t|Fever is bad.", "2\tjunk"], 5, "expected mention or CID line"),
        (["2|t|Fever is bad.", "2\tx\t5\tFever\tDisease\tD2"], 5,
         "non-integer offsets"),
        (["2|t|Fever is bad.", "2\t0\t5\tFever\tGene\tD2"], 5,
         "unexpected mention type 'Gene'"),
        (["2|t|Fever is bad.", "2\t0\t99\tFever\tDisease\tD2"], 5,
         r"offsets \[0, 99\) outside text of length 13"),
        (["2|t|Fever is bad.", "2\t5\t6\t \tDisease\tD2"], 5,
         r"offsets \[5, 6\) cover no token"),
        (["2|t|"], 4, "document 2 has no tokens"),
        (["2|t| ", "2|a|"], 4, "document 2 has no tokens"),
    ], ids=["title", "abstract-id", "relation-id", "columns", "offset-type",
            "mention-type", "offset-range", "no-token", "no-text",
            "blank-text"])
    def test_error_names_file_and_line(self, tmp_path, lines, lineno, message):
        """Each malformed line of the second block raises an error that
        names the file and that line."""
        path = tmp_path / "cdr.txt"
        path.write_text("1|t|Drugx causes fever.\n1\t0\t5\tDrugx\tChemical\tD1\n\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(path))} line {lineno}: {message}"):
            parse_pubtator(path)

    @MUTATION_SETTINGS
    @given(st.data())
    def test_mutated_line_parses_or_names_file_and_line(self, tmp_path, data):
        """A valid file with one line mutated parses, or raises a
        CorpusFormatError that names the file and a line; never another
        error."""
        path = tmp_path / "cdr.txt"
        lines = data.draw(mutated(PUBTATOR_FIXTURE.splitlines()))
        path.write_text("\n".join(lines) + "\n")
        try:
            parse_pubtator(path)
        except CorpusFormatError as err:
            assert_names_a_file_and_line(err, path)

    def test_negative_pair_labeled_null(self, tmp_path):
        fixture = ("8|t|Drugy and headache.\n"
                   "8\t0\t5\tDrugy\tChemical\tD333\n"
                   "8\t10\t18\theadache\tDisease\tD444\n")
        path = tmp_path / "neg.txt"
        path.write_text(fixture)
        _, instances = parse_pubtator(path)
        assert len(instances) == 1 and instances[0].label == 0

    def test_composite_normalized_id_matches_gold(self, tmp_path):
        fixture = ("9|t|Drugw plus fevers.\n"
                   "9\t0\t5\tDrugw\tChemical\tD555|D556\n"
                   "9\t11\t17\tfevers\tDisease\tD666\n"
                   "9\tCID\tD556\tD666\n")
        path = tmp_path / "comp.txt"
        path.write_text(fixture)
        _, instances = parse_pubtator(path)
        assert len(instances) == 1 and instances[0].label == 1


CHEMPROT_ABSTRACTS = "11\tKinase study.\tDrugz inhibits ABC1. Unrelated text about XYZ9 follows here.\n"
CHEMPROT_ENTITIES = (
    "11\tT1\tCHEMICAL\t14\t19\tDrugz\n"
    "11\tT2\tGENE-Y\t29\t33\tABC1\n"
    "11\tT3\tGENE-N\t55\t59\tXYZ9\n"
)
CHEMPROT_RELATIONS = (
    "11\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T2\n"
    "11\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T3\n"
)


class TestChemprot:
    def write(self, tmp_path, relations=CHEMPROT_RELATIONS):
        a = tmp_path / "abstracts.tsv"
        e = tmp_path / "entities.tsv"
        r = tmp_path / "relations.tsv"
        a.write_text(CHEMPROT_ABSTRACTS)
        e.write_text(CHEMPROT_ENTITIES)
        r.write_text(relations)
        return a, e, r

    def test_in_sentence_kept_cross_sentence_skipped(self, tmp_path):
        docs, instances = parse_chemprot(*self.write(tmp_path))
        # Sentence docs: one per sentence; candidates only within sentences.
        positives = [i for i in instances if i.label > 0]
        assert len(positives) == 1  # T1-T2 in sentence; T1-T3 crosses -> skipped
        assert positives[0].label_set[positives[0].label] == "CPR:4"
        # the cross-sentence pair is not even a candidate
        assert len(instances) == 1

    def test_out_of_scope_class_maps_to_negative(self, tmp_path):
        rel = "11\tCPR:1\tN \tPART-OF\tArg1:T1\tArg2:T2\n"
        _, instances = parse_chemprot(*self.write(tmp_path, relations=rel))
        assert len(instances) == 1 and instances[0].label == 0

    def test_unknown_entity_id_raises(self, tmp_path):
        rel = "11\tCPR:4\tY\tINHIBITOR\tArg1:T9\tArg2:T2\n"
        files = self.write(tmp_path, relations=rel)
        with pytest.raises(CorpusFormatError, match="T9"):
            parse_chemprot(*files)

    @pytest.mark.parametrize("name, line, lineno, message", [
        ("abstracts", "12\tonly a title", 2, "expected pmid/title/abstract"),
        ("abstracts", "12\t \t ", 2, "abstract 12 has no tokens"),
        ("entities", "11\tT4\tCHEMICAL\t14", 4, r"expected 5\+ columns"),
        ("entities", "11\tT4\tCHEMICAL\tx\t19\tDrugz", 4, "non-integer offsets"),
        ("entities", "11\tT4\tCHEMICAL\t14\t999\tDrugz", 4,
         r"entity T4 in 11: offsets \[14, 999\) outside text of length 74"),
        ("entities", "11\tT4\tCHEMICAL\t19\t20\t-", 4,
         r"entity T4 in 11: offsets \[19, 20\) cover no token"),
        ("relations", "11\tCPR:4", 3, "expected tab-separated relation"),
        ("relations", "11\tCPR:4\tY\tINHIBITOR\tArg1:T1", 3,
         "missing Arg1:/Arg2: columns"),
        ("relations", "11\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T9", 3,
         "relation in 11 references unknown entity id 'T9'"),
        ("entities", "12\tT4\tCHEMICAL\t14\t19\tDrugz", 4,
         "entity T4 is in 12, which has no abstract"),
        ("relations", "12\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T2", 3,
         "relation is in 12, which has no abstract"),
    ], ids=["abstract-columns", "abstract-no-tokens", "entity-columns", "entity-offset-type",
            "entity-offset-range", "entity-no-token", "relation-columns",
            "relation-args", "unknown-entity", "entity-no-abstract",
            "relation-no-abstract"])
    def test_error_names_file_and_line(self, tmp_path, name, line, lineno, message):
        """A malformed line appended to one of the three files raises an
        error that names that file and that line."""
        files = dict(zip(("abstracts", "entities", "relations"),
                         self.write(tmp_path)))
        with open(files[name], "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(files[name]))} line {lineno}: "
                                 f"{message}"):
            parse_chemprot(*files.values())

    @MUTATION_SETTINGS
    @given(st.data())
    def test_mutated_line_parses_or_names_file_and_line(self, tmp_path, data):
        """Valid files with one line of one file mutated parse, or raise a
        CorpusFormatError that names one of the files and a line; never
        another error."""
        files = self.write(tmp_path)
        path = data.draw(st.sampled_from(files))
        lines = data.draw(mutated(path.read_text().splitlines()))
        path.write_text("\n".join(lines) + "\n")
        try:
            parse_chemprot(*files)
        except CorpusFormatError as err:
            assert_names_a_file_and_line(err, *files)

    def test_label_set_has_six_classes(self, tmp_path):
        _, instances = parse_chemprot(*self.write(tmp_path))
        assert instances[0].label_set == (
            "negative", "CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9")


class TestPathologyRecords:
    def record(self, **kwargs):
        text = ("specimen diagnosis : carcinoma . noted maximum diameter of "
                "the neoplasm is 11 cm .")
        base = {
            "id": "r1",
            "source": "TCGA",
            "text": text,
            "mentions": [
                {"kind": "Type", "char_start": 21, "char_end": 30},
                {"kind": "Size", "char_start": 39, "char_end": 80},
            ],
            "relations": [{"head": 0, "tail": 1, "kind": "Size"}],
        }
        base.update(kwargs)
        return base

    def write(self, tmp_path, records):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_size_example_row(self, tmp_path):
        docs, instances = parse_pathology_records(self.write(tmp_path, [self.record()]))
        assert len(docs) == 1
        size_instances = [i for i in instances if i.task == "pathology:Size"]
        assert len(size_instances) == 1 and size_instances[0].label == 1
        m = docs[0].mentions[1]
        start = docs[0].tokens[m.token_span[0]].char_start
        end = docs[0].tokens[m.token_span[1]].char_end
        assert docs[0].text[start:end] == "maximum diameter of the neoplasm is 11 cm"

    def test_zero_relations_doc_retained(self, tmp_path):
        rec = self.record(relations=[], mentions=[
            {"kind": "Type", "char_start": 21, "char_end": 30}])
        docs, instances = parse_pathology_records(self.write(tmp_path, [rec]))
        assert len(docs) == 1 and instances == []

    def test_unknown_kind_lists_legal_kinds(self, tmp_path):
        rec = self.record(mentions=[{"kind": "Weight", "char_start": 0,
                                     "char_end": 8}])
        path = self.write(tmp_path, [rec])
        with pytest.raises(CorpusFormatError) as err:
            parse_pathology_records(path)
        for kind in corpus.PATHOLOGY_KINDS:
            assert kind in str(err.value)

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r["mentions"][1].pop("kind"), "mention missing field 'kind'"),
        (lambda r: r["relations"][0].pop("head"), "relation missing field 'head'"),
        (lambda r: r["mentions"][0].update(char_start="abc"),
         "field 'char_start' is 'abc', expected an integer"),
        (lambda r: r.update(mentions="Size"), "field 'mentions' is str"),
        (lambda r: r.update(text=7), "field 'text' is int"),
        (lambda r: r["relations"].append([0, 1]), "relation is not a JSON object"),
    ], ids=["mention_kind", "relation_head", "char_start", "mentions_type",
            "text_type", "relation_list"])
    def test_malformed_field_named_with_line(self, tmp_path, mutate, message):
        bad = self.record(id="r2")
        mutate(bad)
        path = self.write(tmp_path, [self.record(), bad])
        with pytest.raises(CorpusFormatError) as err:
            parse_pathology_records(path)
        assert str(err.value).startswith(f"{path} line 2: ")
        assert message in str(err.value)

    def test_record_not_an_object(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(self.record()) + "\n[1, 2]\n")
        with pytest.raises(CorpusFormatError, match="line 2: record is not a JSON object"):
            parse_pathology_records(path)

    def test_error_names_file_then_line(self, tmp_path):
        """Record files name the file, then the line, as every other
        reader does."""
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(self.record()) + "\n{\"id\": \n")
        with pytest.raises(CorpusFormatError) as err:
            parse_pathology_records(path)
        assert re.fullmatch(rf"{re.escape(str(path))} line 2: invalid record: .*",
                            str(err.value))
        path.write_text(json.dumps(self.record(text=7)) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            parse_pathology_records(path)
        assert str(err.value) == f"{path} line 1: record field 'text' is int, expected str"

    @pytest.mark.parametrize("value", [True, 21.5, math.inf, math.nan],
                             ids=["bool", "fraction", "inf", "nan"])
    def test_offset_that_is_no_integer_named_with_line(self, tmp_path, value):
        """JSON `true` and `21.5` used to parse as offsets 1 and 21, and
        `Infinity` ended in an OverflowError."""
        rec = self.record()
        rec["mentions"][0]["char_start"] = value
        path = self.write(tmp_path, [rec])
        with pytest.raises(CorpusFormatError,
                           match="line 1: mention field 'char_start' is .*, "
                                 "expected an integer"):
            parse_pathology_records(path)

    def test_integral_offsets_in_other_forms_accepted(self, tmp_path):
        rec = self.record()
        rec["mentions"][0].update(char_start=21.0, char_end="30")
        parsed = parse_pathology_records(self.write(tmp_path, [rec]))
        assert parsed == parse_pathology_records(self.write(tmp_path, [self.record()]))

    @MUTATION_SETTINGS
    @given(st.data())
    def test_mutated_record_parses_as_before_or_names_line_and_file(
            self, tmp_path, data):
        """Valid records with one key deleted, one value of another JSON
        type or one line cut short parse exactly as before, or raise a
        CorpusFormatError naming that line and the file; never another
        error."""
        lines = [json.dumps(self.record()), json.dumps(self.record(id="r2"))]
        path = self.write(tmp_path, [json.loads(line) for line in lines])
        expected = parse_pathology_records(path)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = data.draw(mutated_record(lines[i]))
        path.write_text("\n".join(lines) + "\n")
        try:
            got = parse_pathology_records(path)
        except CorpusFormatError as err:
            assert re.fullmatch(rf"{re.escape(str(path))} line {i + 1}: .*",
                                str(err), re.DOTALL), str(err)
        else:
            assert got == expected

    def test_round_trip_field_exact(self, tmp_path):
        docs, instances = parse_pathology_records(self.write(tmp_path, [self.record()]))
        out = tmp_path / "again.jsonl"
        write_records(docs, instances, out)
        docs2, instances2 = parse_pathology_records(out)
        assert docs2[0].id == docs[0].id
        assert docs2[0].source == docs[0].source
        assert docs2[0].text == docs[0].text
        assert docs2[0].mentions == docs[0].mentions
        assert ([i for i in instances2 if i.label > 0]
                == [i for i in instances if i.label > 0])


class TestAttachDependencies:
    def conllu(self, tmp_path, rows):
        path = tmp_path / "p.conllu"
        lines = []
        for i, (head, rel) in enumerate(rows, start=1):
            cols = [str(i), f"w{i}", "_", "_", "_", "_", str(head), rel, "_", "_"]
            lines.append("\t".join(cols))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_heads_to_undirected_edges(self, tmp_path):
        doc = make_doc("wa wb wc", [])
        parse = self.conllu(tmp_path, [(2, "det"), (0, "root"), (2, "obj")])
        out = attach_dependencies(doc, parse)
        assert {(i, j) for i, j, _ in out.dep_edges} == {(0, 1), (2, 1)}

    def test_single_token_no_edges(self, tmp_path):
        doc = make_doc("wa", [])
        parse = self.conllu(tmp_path, [(0, "root")])
        assert attach_dependencies(doc, parse).dep_edges == []

    def test_fallback_linear_chain(self):
        doc = make_doc("wa wb wc", [])
        out = attach_dependencies(doc, None)
        assert [(i, j) for i, j, _ in out.dep_edges] == [(0, 1), (1, 2)]

    def test_count_mismatch_names_both_counts(self, tmp_path):
        doc = make_doc("wa wb wc", [])
        parse = self.conllu(tmp_path, [(0, "root")])
        with pytest.raises(CorpusFormatError, match="1.*3"):
            attach_dependencies(doc, parse)

    def test_non_integer_head_rejected(self, tmp_path):
        doc = make_doc("wa wb", [])
        parse = self.conllu(tmp_path, [(0, "root"), ("_", "dep")])
        with pytest.raises(CorpusFormatError, match="token 2 has non-integer head"):
            attach_dependencies(doc, parse)

    def two_sentences(self, tmp_path, first_heads, second_heads):
        path = tmp_path / "two.conllu"
        blocks = []
        for heads in (first_heads, second_heads):
            blocks.append("\n".join(
                "\t".join([str(i), f"w{i}", "_", "_", "_", "_", str(h), "dep",
                           "_", "_"])
                for i, h in enumerate(heads, start=1)))
        path.write_text("\n\n".join(blocks) + "\n")
        return path

    def test_heads_resolve_within_each_sentence(self, tmp_path):
        doc = make_doc("wa wb wc wd", [])
        parse = self.two_sentences(tmp_path, [0, 1], [2, 0])
        out = attach_dependencies(doc, parse)
        assert [(i, j) for i, j, _ in out.dep_edges] == [(1, 0), (2, 3)]

    @pytest.mark.parametrize("head", [3, -1])
    def test_head_outside_its_sentence_rejected(self, tmp_path, head):
        # Read without the check, head 3 of the first two-token sentence
        # would link into the second sentence, and -1 before the document.
        doc = make_doc("wa wb wc wd", [])
        parse = self.two_sentences(tmp_path, [0, head], [2, 0])
        with pytest.raises(CorpusFormatError, match=f"head {head} outside"):
            attach_dependencies(doc, parse)

    # Each error names the file and the line. The parse below has a
    # comment on line 1, so token k sits on line k + 1.
    def commented(self, tmp_path, rows):
        path = tmp_path / "c.conllu"
        path.write_text("# sent_id = 1\n" + "\n".join(rows) + "\n")
        return path

    @staticmethod
    def row(i, head, columns=10):
        return "\t".join([str(i), f"w{i}", "_", "_", "_", "_", str(head),
                          "dep", "_", "_"][:columns])

    def test_short_row_names_file_and_line(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0), self.row(2, 1, 7)])
        with pytest.raises(CorpusFormatError,
                           match=r"c\.conllu line 3: expected at least 8 "
                                 r"columns, got 7"):
            attach_dependencies(make_doc("wa wb", []), parse)

    def test_eight_column_rows_accepted(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0, 8), self.row(2, 1, 8)])
        out = attach_dependencies(make_doc("wa wb", []), parse)
        assert [(i, j) for i, j, _ in out.dep_edges] == [(1, 0)]

    def test_non_integer_head_names_file_and_line(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0), self.row(2, "x")])
        with pytest.raises(CorpusFormatError,
                           match=r"c\.conllu line 3: token 2 has non-integer"):
            attach_dependencies(make_doc("wa wb", []), parse)

    def test_head_outside_sentence_names_file_and_line(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0), self.row(2, 5)])
        with pytest.raises(CorpusFormatError,
                           match=r"c\.conllu line 3: token 2 .* head 5 outside"):
            attach_dependencies(make_doc("wa wb", []), parse)

    def test_too_many_tokens_names_first_extra_line(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0), self.row(2, 1),
                                          self.row(3, 1)])
        with pytest.raises(CorpusFormatError,
                           match=r"c\.conllu line 4: parse has 3 tokens but "
                                 r"document d0 has 2"):
            attach_dependencies(make_doc("wa wb", []), parse)

    def test_too_few_tokens_names_end_of_file(self, tmp_path):
        parse = self.commented(tmp_path, [self.row(1, 0)])
        with pytest.raises(CorpusFormatError,
                           match=r"c\.conllu line 2 \(end of file\): parse "
                                 r"has 1 tokens but document d0 has 2"):
            attach_dependencies(make_doc("wa wb", []), parse)


    @MUTATION_SETTINGS
    @given(st.data())
    def test_mutated_line_parses_or_names_file_and_line(self, tmp_path, data):
        """A valid two-sentence parse with one line mutated attaches, or
        raises a CorpusFormatError that names the file and a line; never
        another error."""
        rows = [self.row(1, 0), self.row(2, 1), "", self.row(1, 2), self.row(2, 0)]
        parse = self.commented(tmp_path, data.draw(mutated(rows)))
        try:
            attach_dependencies(make_doc("wa wb wc wd", []), parse)
        except CorpusFormatError as err:
            assert re.match(rf"{re.escape(str(parse))} line [1-9][0-9]*"
                            rf"( \(end of file\))?: ", str(err)), str(err)


class TestVocabulary:
    def test_threshold_boundary(self):
        doc = make_doc("a a b", [])
        vocab = build_vocabulary([doc], min_count=2)
        assert set(vocab.token_to_id) == {PAD_TOKEN, "<unk>", "a"}
        assert vocab.id("b") == UNK_ID

    def test_min_count_one_keeps_everything(self):
        doc = make_doc("x y z", [])
        vocab = build_vocabulary([doc], min_count=1)
        assert {tok for tok in "xyz"} <= set(vocab.token_to_id)

    def test_identical_multisets_identical_ids(self):
        a = build_vocabulary([make_doc("b a a c", [])])
        b = build_vocabulary([make_doc("a c a b", [], doc_id="d1")])
        assert a.token_to_id == b.token_to_id

    def test_reserved_ids(self):
        vocab = build_vocabulary([make_doc("a", [])])
        assert vocab.token_to_id[PAD_TOKEN] == PAD_ID
        assert vocab.token_to_id["<unk>"] == UNK_ID


class TestPretrainedVectors:
    def test_full_coverage(self, tmp_path):
        vocab = build_vocabulary([make_doc("aspirin works", [])])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\naspirin 0.5 0.25 -1.0\nworks 1 2 3\n")
        table = load_pretrained_vectors(path, vocab)
        assert table.coverage == 1.0
        assert np.array_equal(table.vectors[vocab.id("aspirin")], [0.5, 0.25, -1.0])

    def test_empty_file_random_rows(self, tmp_path):
        vocab = build_vocabulary([make_doc("alpha beta", [])])
        path = tmp_path / "vec.txt"
        path.write_text("")
        table = load_pretrained_vectors(path, vocab, seed=1, dim=4)
        assert table.coverage == 0.0
        assert table.vectors.shape == (vocab.size, 4)
        assert np.all(np.abs(table.vectors) <= 0.25)

    def test_dim_inconsistency_raises(self, tmp_path):
        vocab = build_vocabulary([make_doc("a b", [])])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(CorpusFormatError, match="dims"):
            load_pretrained_vectors(path, vocab)

    @pytest.mark.parametrize("text, line, value", [
        ("2 3\na 1 2 3\nb 1 x 3\n", 3, "'x'"),
        ("2 3\na 1 nan 3\nb 1 2 3\n", 2, "'nan'"),
        ("a 1 2 inf\nb 1 2 3\n", 1, "'inf'"),
        ("a 1 two 3\nb 1 2 3\n", 1, "'two'"),
    ], ids=["non_numeric", "nan", "first_line_inf", "first_line_non_numeric"])
    def test_bad_value_named_with_file_line_and_token(self, tmp_path, text,
                                                      line, value):
        vocab = build_vocabulary([make_doc("a b", [])])
        path = tmp_path / "vec.txt"
        path.write_text(text)
        with pytest.raises(CorpusFormatError) as err:
            load_pretrained_vectors(path, vocab)
        message = str(err.value)
        assert f"{path} line {line}:" in message and value in message
        token = text.splitlines()[line - 1].split()[0]
        assert f"vector of {token!r}" in message

    def test_blank_first_line_skipped(self, tmp_path):
        """A blank first line ended in an IndexError."""
        vocab = build_vocabulary([make_doc("a b", [])])
        path = tmp_path / "vec.txt"
        path.write_text("\na 1 2 3\n")
        table = load_pretrained_vectors(path, vocab)
        assert table.dim == 3
        assert np.array_equal(table.vectors[vocab.id("a")], [1.0, 2.0, 3.0])

    @MUTATION_SETTINGS
    @given(st.data())
    def test_mutated_line_loads_or_names_file_and_line(self, tmp_path, data):
        """A valid vector file with one line mutated loads, or raises a
        CorpusFormatError that names the file and a line; never another
        error."""
        vocab = build_vocabulary([make_doc("aspirin works fever", [])])
        lines = ["3 3", "aspirin 0.5 0.25 -1.0", "works 1 2 3", "fever 0 0 1"]
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(data.draw(mutated(lines, sep=" "))) + "\n")
        try:
            load_pretrained_vectors(path, vocab)
        except CorpusFormatError as err:
            assert_names_a_file_and_line(err, path)

    def test_seeded_missing_rows_reproducible(self, tmp_path):
        vocab = build_vocabulary([make_doc("a b c", [])])
        path = tmp_path / "vec.txt"
        path.write_text("1 2\na 9 9\n")
        t1 = load_pretrained_vectors(path, vocab, seed=5)
        t2 = load_pretrained_vectors(path, vocab, seed=5)
        assert np.array_equal(t1.vectors, t2.vectors)


class TestCandidates:
    def test_combinatorics(self):
        text = "c1 c2 d1 d2 d3"
        doc = make_doc(text, [("Chemical", 0, 2), ("Chemical", 3, 5),
                              ("Disease", 6, 8), ("Disease", 9, 11),
                              ("Disease", 12, 14)], source="CDR")
        cands = generate_candidates(doc, "cdr")
        assert len(cands) == 6

    def test_no_chemicals_no_candidates(self):
        doc = make_doc("d1 d2", [("Disease", 0, 2), ("Disease", 3, 5)],
                       source="CDR")
        assert generate_candidates(doc, "cdr") == []

    def test_gold_labels_in_canonical_order(self):
        doc = make_doc("c1 c2 d1 d2 d3",
                       [("Chemical", 0, 2), ("Chemical", 3, 5),
                        ("Disease", 6, 8), ("Disease", 9, 11),
                        ("Disease", 12, 14)], source="CDR")
        cands = generate_candidates(doc, "cdr", gold={(0, 2): 1})
        assert [c.label for c in cands] == [1, 0, 0, 0, 0, 0]
        order = [(c.head, c.tail) for c in cands]
        assert order == sorted(order)


class TestNormalizeLength:
    def long_doc(self, n):
        text = " ".join(f"w{i}" for i in range(n))
        return make_doc(text, [])

    def test_truncation(self):
        assert len(normalize_length(self.long_doc(200)).tokens) == 150

    def test_short_document_not_padded(self):
        doc = normalize_length(self.long_doc(10))
        assert [t.surface for t in doc.tokens] == [f"w{i}" for i in range(10)]

    def test_interior_unchanged(self):
        doc = normalize_length(self.long_doc(100))
        assert len(doc.tokens) == 100
        assert all(t.surface != PAD_TOKEN for t in doc.tokens)

    def test_mentions_beyond_cut_dropped_with_instances(self):
        text = " ".join(f"w{i}" for i in range(200))
        tokens = tokenize(text)
        mentions = [EntityMention("m0", "Type", (0, 0)),
                    EntityMention("m1", "Size", (180, 181))]
        doc = Document("d", "synthetic", text, tokens, mentions)
        inst = RelationInstance("d", 0, 1, 1, ("null", "Size"), "pathology:Size")
        docs, instances = normalize_corpus([doc], [inst])
        assert len(docs[0].mentions) == 1
        assert instances == []

    @given(st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_always_inside_bounds(self, n):
        doc = normalize_length(self.long_doc(n))
        assert len(doc.tokens) == min(n, 150)


def _instances(n):
    return [RelationInstance(f"d{i}", 0, 1, i % 2, ("null", "x"), "pathology:Size")
            for i in range(n)]


class TestFolds:
    def test_ten_singletons(self):
        plan = make_folds(_instances(10), 10, seed=0)
        sizes = [len(plan.fold_ids(f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_25_instances_10_folds(self):
        plan = make_folds(_instances(25), 10, seed=0)
        sizes = sorted(len(plan.fold_ids(f)) for f in range(10))
        assert sizes == [2] * 5 + [3] * 5

    def test_same_seed_identical(self):
        a = make_folds(_instances(30), 5, seed=3)
        b = make_folds(_instances(30), 5, seed=3)
        assert a.assignment == b.assignment

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            make_folds(_instances(3), 10, seed=0)

    def test_split_disjoint_and_covering(self):
        plan = make_folds(_instances(40), 4, seed=1)
        all_ids = set(plan.assignment)
        for fold in range(4):
            train, dev, test = plan.split(fold)
            parts = [set(train), set(dev), set(test)]
            assert set.union(*parts) == all_ids
            assert not parts[0] & parts[2] and not parts[1] & parts[2]
            assert not parts[0] & parts[1]
            assert len(dev) == max(1, round(0.1 * (len(train) + len(dev))))

    @given(st.integers(10, 60), st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, n, k, seed):
        if n < k:
            return
        plan = make_folds(_instances(n), k, seed)
        folds = [plan.fold_ids(f) for f in range(k)]
        assert sum(len(f) for f in folds) == n
        assert len(set().union(*map(set, folds))) == n
        assert max(map(len, folds)) - min(map(len, folds)) <= 1


class TestSynthCorpus:
    def test_declared_counts_round_trip(self, tmp_path):
        corpus_out = synth_corpus({"Size": 5}, seed=1)
        positives = [i for i in corpus_out.instances
                     if i.task == "pathology:Size" and i.label > 0]
        assert len(positives) == 5
        path = tmp_path / "synth.jsonl"
        write_records(corpus_out.documents, corpus_out.instances, path)
        _, parsed = parse_pathology_records(path)
        re_pos = [i for i in parsed if i.task == "pathology:Size" and i.label > 0]
        assert len(re_pos) == 5

    def test_seed_determinism_bitwise(self):
        a = synth_corpus({"Size": 4, "Grade": 2}, seed=9)
        b = synth_corpus({"Size": 4, "Grade": 2}, seed=9)
        assert [d.text for d in a.documents] == [d.text for d in b.documents]
        assert a.instances == b.instances

    def test_distractors_make_negatives(self):
        out = synth_corpus({"Size": 10}, seed=2)
        size = [i for i in out.instances if i.task == "pathology:Size"]
        assert len(size) == 20
        assert sum(i.label for i in size) == 10

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            synth_corpus({"Mass": 2}, seed=0)

    def test_count_exceeding_reports(self):
        with pytest.raises(ValueError):
            synth_corpus({"Size": 5}, seed=0, reports=3)

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="style"):
            synth_corpus({"Size": 2}, seed=0, style="c")

    def test_every_label_valid_for_its_label_set(self):
        out = synth_corpus({"Size": 6, "Grade": 4, "TNM": 3}, seed=8)
        assert out.instances
        for inst in out.instances:
            assert 0 <= inst.label < len(inst.label_set)
            assert inst.head != inst.tail
