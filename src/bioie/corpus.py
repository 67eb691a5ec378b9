"""Corpus ingestion: document/mention/relation types, format parsers,
vocabulary and embedding tables, candidate generation, length
normalization, fold planning, and a synthetic pathology-report generator.

Supported input formats:
  * PubTator (pipe/tab chemical-disease abstracts),
  * the three-file tab-separated chemical-protein layout,
  * line-delimited JSON pathology records (the canonical format, one
    object per line with fields: id, source, text, mentions, relations),
  * CoNLL-U-style dependency parses (columns 1, 7, 8),
  * word2vec-style text vector files.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

MAX_DOC_TOKENS = 150
# Share of instances held out as the dev set (and, in a single split, as
# the test set).
DEV_FRACTION = 0.1

PATHOLOGY_KINDS = ("Type", "Site", "Size", "Subtype", "Grade", "TNM", "Metas")
CHEMPROT_EVAL_GROUPS = ("CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9")
SOURCES = ("CDR", "ChemProt", "TCGA", "TFAH", "synthetic")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENT_END = frozenset(".!?")


class CorpusFormatError(ValueError):
    """A corpus file violates its declared layout."""


# ---------------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class Token:
    surface: str
    char_start: int
    char_end: int
    index: int


@dataclass(frozen=True)
class EntityMention:
    id: str
    kind: str
    token_span: tuple[int, int]  # inclusive
    normalized_id: str | None = None


@dataclass
class Document:
    id: str
    source: str
    text: str
    tokens: list[Token]
    mentions: list[EntityMention]
    dep_edges: list[tuple[int, int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class RelationInstance:
    doc_id: str
    head: int  # mention index
    tail: int  # mention index
    label: int
    label_set: tuple[str, ...]
    task: str

    @property
    def iid(self) -> str:
        return f"{self.doc_id}|{self.head}|{self.tail}|{self.task}"


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class EmbeddingTable:
    dim: int
    vectors: np.ndarray  # (vocab size, dim)
    coverage: float


@dataclass
class FoldPlan:
    k: int
    assignment: dict[str, int]  # instance id -> fold
    seed: int

    def fold_ids(self, fold: int) -> list[str]:
        return [iid for iid, f in self.assignment.items() if f == fold]

    def split(self, fold: int) -> tuple[list[str], list[str], list[str]]:
        """(train, dev, test) ids for one fold; dev is carved from train."""
        test = self.fold_ids(fold)
        pool = [iid for iid, f in self.assignment.items() if f != fold]
        n_dev = max(1, round(DEV_FRACTION * len(pool))) if pool else 0
        rng = np.random.default_rng([self.seed, fold])
        dev_pos = set(rng.choice(len(pool), size=n_dev, replace=False).tolist())
        dev = [iid for i, iid in enumerate(pool) if i in dev_pos]
        train = [iid for i, iid in enumerate(pool) if i not in dev_pos]
        return train, dev, test


# ---------------------------------------------------------------------------
# Tokenization

def tokenize(text: str) -> list[Token]:
    """Whitespace/punctuation split with character offsets preserved."""
    return [
        Token(m.group(), m.start(), m.end(), i)
        for i, m in enumerate(_TOKEN_RE.finditer(text))
    ]


def _char_span_to_token_span(tokens: list[Token], start: int, end: int,
                             where: str) -> tuple[int, int]:
    hit = [t.index for t in tokens if t.char_start < end and t.char_end > start]
    if not hit:
        raise CorpusFormatError(f"{where}: offsets [{start}, {end}) cover no token")
    return hit[0], hit[-1]


def split_sentences(tokens: list[Token], mentions: list[EntityMention]
                    ) -> list[tuple[int, int]]:
    """Token-index sentence spans (end-exclusive); never cuts a mention."""
    inside = np.zeros(len(tokens), dtype=bool)
    for m in mentions:
        s, e = m.token_span
        inside[s:e + 1] = True
    spans = []
    start = 0
    for t in tokens:
        if t.surface in _SENT_END and not inside[t.index]:
            spans.append((start, t.index + 1))
            start = t.index + 1
    if start < len(tokens):
        spans.append((start, len(tokens)))
    return spans or [(0, len(tokens))]


# ---------------------------------------------------------------------------
# Candidate generation

def _label_set_for(task: str) -> tuple[str, ...]:
    if task == "cdr":
        return ("null", "CID")
    if task == "chemprot":
        return ("negative",) + CHEMPROT_EVAL_GROUPS
    if task.startswith("pathology:"):
        kind = task.split(":", 1)[1]
        if kind not in PATHOLOGY_KINDS:
            raise ValueError(f"unknown pathology sub-task kind {kind!r}")
        return ("null", kind)
    raise ValueError(f"unknown task {task!r}")


def generate_candidates(doc: Document, task: str,
                        gold: dict[tuple[int, int], int] | None = None
                        ) -> list[RelationInstance]:
    """All typed candidate pairs for a document in canonical
    (head index, tail index) order, labeled against `gold` (mention-index
    pairs -> class index; absent pairs are the negative class)."""
    gold = gold or {}
    label_set = _label_set_for(task)
    if task == "cdr":
        heads = [i for i, m in enumerate(doc.mentions) if m.kind == "Chemical"]
        tails = [i for i, m in enumerate(doc.mentions) if m.kind == "Disease"]
    elif task == "chemprot":
        heads = [i for i, m in enumerate(doc.mentions) if m.kind == "Chemical"]
        tails = [i for i, m in enumerate(doc.mentions) if m.kind == "Gene/Protein"]
    else:
        kind = task.split(":", 1)[1]
        anchors = [i for i, m in enumerate(doc.mentions) if m.kind == "Type"]
        heads = anchors[:1]  # the first Type mention anchors the report
        tails = [i for i, m in enumerate(doc.mentions)
                 if m.kind == kind and i not in heads]
    out = []
    for h in heads:
        for t in tails:
            if h == t:
                continue
            out.append(RelationInstance(doc.id, h, t, gold.get((h, t), 0),
                                        label_set, task))
    return out


# ---------------------------------------------------------------------------
# PubTator (chemical-disease abstracts)

def parse_pubtator(path) -> tuple[list[Document], list[RelationInstance]]:
    """Parse blank-line-separated PubTator blocks.

    Each block holds `id|t|title`, `id|a|abstract`, tab-separated mention
    lines (pmid, start, end, text, type, normalized id) and tab-separated
    `CID` relation lines. Offsets index into title + " " + abstract.
    Every `CorpusFormatError` names the file and the line.
    """
    docs: list[Document] = []
    instances: list[RelationInstance] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")

    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            block.append((lineno, raw))
            continue
        if block:
            doc, inst = _parse_pubtator_block(block, path)
            docs.append(doc)
            instances.extend(inst)
            block = []
    if block:
        doc, inst = _parse_pubtator_block(block, path)
        docs.append(doc)
        instances.extend(inst)
    return docs, instances


def _parse_pubtator_block(block, path) -> tuple[Document, list[RelationInstance]]:
    (ln_t, line_t), *rest = block
    parts = line_t.split("|", 2)
    if len(parts) != 3 or parts[1] != "t":
        raise CorpusFormatError(
            f"{path} line {ln_t}: expected 'id|t|title', got {line_t!r}")
    pmid, _, title = parts
    abstract = ""
    body = rest
    if rest:
        parts_a = rest[0][1].split("|", 2)
        if len(parts_a) == 3 and parts_a[1] == "a":
            if parts_a[0] != pmid:
                raise CorpusFormatError(
                    f"{path} line {rest[0][0]}: abstract id {parts_a[0]} != {pmid}")
            abstract = parts_a[2]
            body = rest[1:]
    text = title + " " + abstract if abstract else title
    tokens = tokenize(text)
    if not tokens:
        raise CorpusFormatError(f"{path} line {ln_t}: document {pmid} has no tokens")

    mentions: list[EntityMention] = []
    cid_gold: set[tuple[str, str]] = set()
    for lineno, raw in body:
        where = f"{path} line {lineno}"
        cols = raw.split("\t")
        if len(cols) == 4 and cols[1] == "CID":
            if cols[0] != pmid:
                raise CorpusFormatError(f"{where}: relation id {cols[0]} != {pmid}")
            cid_gold.add((cols[2], cols[3]))
            continue
        if len(cols) not in (5, 6):
            raise CorpusFormatError(
                f"{where}: expected mention or CID line, got {raw!r}")
        try:
            start, end = int(cols[1]), int(cols[2])
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: non-integer offsets") from exc
        kind = cols[4]
        if kind not in ("Chemical", "Disease"):
            raise CorpusFormatError(f"{where}: unexpected mention type {kind!r}")
        if not 0 <= start < end <= len(text):
            raise CorpusFormatError(
                f"{where}: offsets [{start}, {end}) outside text of "
                f"length {len(text)}")
        span = _char_span_to_token_span(tokens, start, end, where)
        norm = cols[5] if len(cols) == 6 else None
        mentions.append(EntityMention(f"m{len(mentions)}", kind, span, norm))

    doc = Document(pmid, "CDR", text, tokens, mentions)

    def norm_parts(m):
        # composite annotations carry several ids joined by '|'
        return (m.normalized_id or "").split("|")

    gold = {}
    for h, mh in enumerate(doc.mentions):
        for t, mt in enumerate(doc.mentions):
            if mh.kind == "Chemical" and mt.kind == "Disease":
                if any((c, d) in cid_gold
                       for c in norm_parts(mh) for d in norm_parts(mt)):
                    gold[(h, t)] = 1
    return doc, generate_candidates(doc, "cdr", gold)


# ---------------------------------------------------------------------------
# Chemical-protein three-file layout

def parse_chemprot(abstract_file, entity_file, relation_file
                   ) -> tuple[list[Document], list[RelationInstance]]:
    """Parse the tab-separated abstract/entity/relation triple.

    Abstracts become one document per sentence (pairs never cross a
    sentence); relation groups outside the evaluated five map to the
    negative class, and cross-sentence gold pairs are skipped. Every
    `CorpusFormatError` names the file and the line.
    """
    texts: dict[str, tuple[str, int]] = {}  # pmid -> text, its line
    with open(abstract_file, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            cols = raw.rstrip("\n").split("\t")
            if len(cols) < 3:
                raise CorpusFormatError(
                    f"{abstract_file} line {lineno}: expected pmid/title/abstract")
            texts[cols[0]] = cols[1] + "\t" + cols[2], lineno

    raw_entities: dict[str, dict[str, tuple[str, int, int, int]]] = {}
    with open(entity_file, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            cols = raw.rstrip("\n").split("\t")
            if len(cols) < 5:
                raise CorpusFormatError(
                    f"{entity_file} line {lineno}: expected 5+ columns")
            pmid, eid, etype = cols[0], cols[1], cols[2]
            if pmid not in texts:
                raise CorpusFormatError(
                    f"{entity_file} line {lineno}: entity {eid} is in {pmid}, "
                    f"which has no abstract")
            try:
                start, end = int(cols[3]), int(cols[4])
            except ValueError as exc:
                raise CorpusFormatError(
                    f"{entity_file} line {lineno}: non-integer offsets") from exc
            kind = "Chemical" if etype.upper().startswith("CHEMICAL") else "Gene/Protein"
            raw_entities.setdefault(pmid, {})[eid] = (kind, start, end, lineno)

    raw_relations: dict[str, list[tuple[str, str, str, int]]] = {}
    with open(relation_file, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            cols = raw.rstrip("\n").split("\t")
            if len(cols) < 3:
                raise CorpusFormatError(
                    f"{relation_file} line {lineno}: expected tab-separated relation")
            pmid, group = cols[0], cols[1]
            if pmid not in texts:
                raise CorpusFormatError(
                    f"{relation_file} line {lineno}: relation is in {pmid}, "
                    f"which has no abstract")
            args = [c for c in cols if c.startswith(("Arg1:", "Arg2:"))]
            if len(args) != 2:
                raise CorpusFormatError(
                    f"{relation_file} line {lineno}: missing Arg1:/Arg2: columns")
            a1 = args[0].split(":", 1)[1]
            a2 = args[1].split(":", 1)[1]
            raw_relations.setdefault(pmid, []).append((group, a1, a2, lineno))

    label_set = _label_set_for("chemprot")
    docs: list[Document] = []
    instances: list[RelationInstance] = []
    for pmid in sorted(texts):
        text, text_line = texts[pmid]
        tokens = tokenize(text)
        if not tokens:
            raise CorpusFormatError(
                f"{abstract_file} line {text_line}: abstract {pmid} has no tokens")
        ents = raw_entities.get(pmid, {})
        mention_of: dict[str, tuple[int, EntityMention]] = {}
        mentions = []
        for eid in sorted(ents):
            kind, start, end, lineno = ents[eid]
            where = f"{entity_file} line {lineno}: entity {eid} in {pmid}"
            if not 0 <= start < end <= len(text):
                raise CorpusFormatError(
                    f"{where}: offsets [{start}, {end}) outside text of "
                    f"length {len(text)}")
            span = _char_span_to_token_span(tokens, start, end, where)
            mention = EntityMention(eid, kind, span)
            mention_of[eid] = (len(mentions), mention)
            mentions.append(mention)

        sent_spans = split_sentences(tokens, mentions)
        sent_of_mention = {}
        for mi, m in enumerate(mentions):
            for si, (s, e) in enumerate(sent_spans):
                if s <= m.token_span[0] and m.token_span[1] < e:
                    sent_of_mention[mi] = si
                    break

        # Per-sentence sub-documents with re-indexed mentions.
        sent_docs = []
        local_index: dict[int, tuple[int, int]] = {}  # mention -> (sent, local idx)
        for si, (s, e) in enumerate(sent_spans):
            sub_text = text[tokens[s].char_start:tokens[e - 1].char_end]
            base = tokens[s].char_start
            sub_tokens = [
                Token(t.surface, t.char_start - base, t.char_end - base, t.index - s)
                for t in tokens[s:e]
            ]
            sub_mentions = []
            for mi, m in enumerate(mentions):
                if sent_of_mention.get(mi) != si:
                    continue
                local_index[mi] = (si, len(sub_mentions))
                sub_mentions.append(EntityMention(
                    m.id, m.kind, (m.token_span[0] - s, m.token_span[1] - s)))
            sub = Document(f"{pmid}.s{si}", "ChemProt", sub_text, sub_tokens,
                           sub_mentions)
            sent_docs.append(sub)

        gold_by_sent: dict[int, dict[tuple[int, int], int]] = {}
        for group, a1, a2, lineno in raw_relations.get(pmid, []):
            for eid in (a1, a2):
                if eid not in mention_of:
                    raise CorpusFormatError(
                        f"{relation_file} line {lineno}: relation in {pmid} "
                        f"references unknown entity id {eid!r}")
            mi1, mi2 = mention_of[a1][0], mention_of[a2][0]
            s1, s2 = sent_of_mention.get(mi1), sent_of_mention.get(mi2)
            if s1 is None or s1 != s2:
                continue  # cross-sentence pair: not a sentence-level candidate
            label = label_set.index(group) if group in CHEMPROT_EVAL_GROUPS else 0
            key = (local_index[mi1][1], local_index[mi2][1])
            gold_by_sent.setdefault(s1, {})[key] = label

        for si, sub in enumerate(sent_docs):
            docs.append(sub)
            instances.extend(
                generate_candidates(sub, "chemprot", gold_by_sent.get(si, {})))
    return docs, instances


# ---------------------------------------------------------------------------
# Canonical pathology record format (line-delimited JSON)

def parse_pathology_records(path) -> tuple[list[Document], list[RelationInstance]]:
    """Parse one JSON record per line with fields id, source, text,
    mentions (kind/char_start/char_end) and relations (head/tail/kind).
    Every `CorpusFormatError` names the file and the line."""
    docs: list[Document] = []
    instances: list[RelationInstance] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(
                    f"{path} line {lineno}: invalid record: {exc}") from exc
            doc, inst = _record_to_document(rec, f"{path} line {lineno}")
            docs.append(doc)
            instances.extend(inst)
    return docs, instances


def _record_fields(obj, what: str, where: str, **types) -> list:
    """The values of `types`' fields of one record object, in order, each
    checked for presence and type. `int` fields also accept an integral
    float and a string that `int()` parses, but not a boolean."""
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: {what} is not a JSON object")
    values = []
    for key, kind in types.items():
        if key not in obj:
            raise CorpusFormatError(f"{where}: {what} missing field {key!r}")
        value = obj[key]
        if kind is int:
            number = _record_int(value)
            if number is None:
                raise CorpusFormatError(
                    f"{where}: {what} field {key!r} is {value!r}, "
                    f"expected an integer")
            value = number
        elif not isinstance(value, kind):
            raise CorpusFormatError(
                f"{where}: {what} field {key!r} is "
                f"{type(value).__name__}, expected {kind.__name__}")
        values.append(value)
    return values


def _record_int(value) -> int | None:
    """`value` as an integer, or None when it is not one: a boolean, a
    non-integral or non-finite float, or anything `int()` refuses."""
    if isinstance(value, bool):
        return None
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _record_to_document(rec, where: str
                        ) -> tuple[Document, list[RelationInstance]]:
    doc_id, source, text, raw_mentions, raw_relations = _record_fields(
        rec, "record", where, id=str, source=str, text=str, mentions=list,
        relations=list)
    if source not in SOURCES:
        raise CorpusFormatError(
            f"{where}: unknown source {source!r} (expected one of "
            f"{', '.join(SOURCES)})")
    tokens = tokenize(text)
    mentions = []
    for m in raw_mentions:
        kind, start, end = _record_fields(m, "mention", where, kind=str,
                                          char_start=int, char_end=int)
        if kind not in PATHOLOGY_KINDS:
            raise CorpusFormatError(
                f"{where}: unknown mention kind {kind!r}; legal kinds are "
                f"{', '.join(PATHOLOGY_KINDS)}")
        if not 0 <= start < end <= len(text):
            raise CorpusFormatError(
                f"{where}: mention offsets [{start}, {end}) outside text")
        span = _char_span_to_token_span(tokens, start, end, where)
        mentions.append(EntityMention(f"m{len(mentions)}", kind, span))
    doc = Document(doc_id, source, text, tokens, mentions)

    gold_by_kind: dict[str, dict[tuple[int, int], int]] = {}
    for rel in raw_relations:
        kind, h, t = _record_fields(rel, "relation", where, kind=str, head=int,
                                    tail=int)
        if kind not in PATHOLOGY_KINDS:
            raise CorpusFormatError(
                f"{where}: unknown relation kind {kind!r}; legal kinds are "
                f"{', '.join(PATHOLOGY_KINDS)}")
        for idx in (h, t):
            if not 0 <= idx < len(mentions):
                raise CorpusFormatError(
                    f"{where}: relation references mention {idx} of "
                    f"{len(mentions)}")
        gold_by_kind.setdefault(kind, {})[(h, t)] = 1

    instances = []
    for kind in PATHOLOGY_KINDS:
        if not any(m.kind == kind for m in mentions):
            continue
        cands = generate_candidates(doc, f"pathology:{kind}",
                                    gold_by_kind.get(kind, {}))
        instances.extend(cands)
    return doc, instances


def write_records(docs: list[Document], instances: list[RelationInstance],
                  path) -> None:
    """Serialize documents plus their positive relations to the canonical
    line-delimited record format."""
    positives: dict[str, list[dict]] = {}
    for inst in instances:
        if inst.label > 0:
            kind = inst.task.split(":", 1)[1] if ":" in inst.task else inst.task
            positives.setdefault(inst.doc_id, []).append(
                {"head": inst.head, "tail": inst.tail, "kind": kind})
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {
                "id": doc.id,
                "source": doc.source,
                "text": doc.text,
                "mentions": [
                    {"kind": m.kind,
                     "char_start": doc.tokens[m.token_span[0]].char_start,
                     "char_end": doc.tokens[m.token_span[1]].char_end}
                    for m in doc.mentions
                ],
                "relations": positives.get(doc.id, []),
            }
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Dependency parses

def linear_chain_edges(n: int) -> list[tuple[int, int, str]]:
    return [(i, i + 1, "adj") for i in range(n - 1)]


def attach_dependencies(doc: Document, parse_file=None) -> Document:
    """Attach undirected (child, head) edges from a CoNLL-U-style file;
    with no file, fall back to a linear token chain. Each error names
    the file and line."""
    if parse_file is None:
        return replace_edges(doc, linear_chain_edges(len(doc.tokens)))
    heads: list[tuple[int, str]] = []
    offsets: list[int] = []
    lines: list[int] = []  # the line of each token row
    offset = 0
    lineno = 0
    with open(parse_file, encoding="utf-8") as fh:
        in_block = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if in_block:
                    offset = len(heads)
                    in_block = False
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if not cols[0].isdigit():
                continue  # multiword ranges and empty nodes carry no head
            where = f"{parse_file} line {lineno}"
            if len(cols) < 8:
                raise CorpusFormatError(
                    f"{where}: expected at least 8 columns, got {len(cols)}")
            try:
                head = int(cols[6])
            except ValueError:
                raise CorpusFormatError(
                    f"{where}: token {cols[0]} has non-integer head "
                    f"{cols[6]!r}") from None
            in_block = True
            heads.append((head, cols[7]))
            offsets.append(offset)
            lines.append(lineno)
    if len(heads) != len(doc.tokens):
        # The first token row past the document, or the end of the file.
        at = (f"line {lines[len(doc.tokens)]}" if len(heads) > len(doc.tokens)
              else f"line {lineno} (end of file)")
        raise CorpusFormatError(
            f"{parse_file} {at}: parse has {len(heads)} tokens but "
            f"document {doc.id} has {len(doc.tokens)}")
    sentence_len = Counter(offsets)  # sentence start -> token count
    edges = []
    for i, ((head, rel), base) in enumerate(zip(heads, offsets)):
        if head == 0:
            continue
        if not 0 < head <= sentence_len[base]:
            raise CorpusFormatError(
                f"{parse_file} line {lines[i]}: token {i - base + 1} of the "
                f"sentence starting at token {base + 1} has head {head} "
                f"outside its {sentence_len[base]}-token sentence")
        edges.append((i, base + head - 1, rel))
    return replace_edges(doc, edges)


def replace_edges(doc: Document, edges) -> Document:
    return Document(doc.id, doc.source, doc.text, doc.tokens, doc.mentions,
                    list(edges))


# ---------------------------------------------------------------------------
# Vocabulary and pretrained vectors

def build_vocabulary(docs: list[Document], min_count: int = 1) -> Vocabulary:
    """Frequency-threshold vocabulary with PAD=0 and UNK=1 reserved; ids
    assigned by descending frequency, ties broken lexicographically."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(t.surface for t in doc.tokens)
    kept = sorted((tok for tok, c in counts.items() if c >= min_count),
                  key=lambda tok: (-counts[tok], tok))
    token_to_id = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for tok in kept:
        if tok not in token_to_id:
            token_to_id[tok] = len(token_to_id)
    return Vocabulary(token_to_id)


def random_embeddings(vocab: Vocabulary, dim: int, seed: int = 0) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.25, 0.25, size=(vocab.size, dim))
    return EmbeddingTable(dim, vectors, 0.0)


def load_pretrained_vectors(path, vocab: Vocabulary, seed: int = 0,
                            dim: int | None = None) -> EmbeddingTable:
    """Load word2vec-style text vectors; rows missing from the file are
    drawn uniform in [-0.25, 0.25] from the run seed."""
    file_rows: dict[str, np.ndarray] = {}
    file_dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            if (lineno == 1 and len(parts) == 2
                    and all(p.lstrip("-").isdigit() for p in parts)):
                file_dim = int(parts[1])  # the word2vec "count dim" header
                continue
            tok, vec = _vector_row(parts, path, lineno)
            if file_dim is None:
                file_dim = vec.size
            elif vec.size != file_dim:
                raise CorpusFormatError(
                    f"{path} line {lineno}: vector has {vec.size} dims, "
                    f"expected {file_dim}")
            file_rows[tok] = vec
    if file_dim is None:
        if dim is None:
            raise CorpusFormatError(f"{path}: empty vector file and no dim given")
        file_dim = dim
    if dim is not None and dim != file_dim:
        raise CorpusFormatError(
            f"{path}: file dimension {file_dim} != requested {dim}")

    table = random_embeddings(vocab, file_dim, seed).vectors
    covered = 0
    for tok, tid in vocab.token_to_id.items():
        row = file_rows.get(tok)
        if row is not None:
            table[tid] = row
            if tid not in (PAD_ID, UNK_ID):
                covered += 1
    denom = max(1, vocab.size - 2)
    return EmbeddingTable(file_dim, table, covered / denom)


def _vector_row(parts: list[str], path, lineno: int) -> tuple[str, np.ndarray]:
    """The token and vector of one vector-file line. A value that is not a
    finite number raises `CorpusFormatError` naming the file, the line,
    the token and the value."""
    tok, values = parts[0], parts[1:]
    where = f"{path} line {lineno}: vector of {tok!r}"
    try:
        vec = np.array([float(v) for v in values])
    except ValueError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from None
    finite = np.isfinite(vec)
    if not finite.all():
        raise CorpusFormatError(
            f"{where} has non-finite value {values[int(np.argmin(finite))]!r}")
    return tok, vec


# ---------------------------------------------------------------------------
# Length normalization

def normalize_length(doc: Document) -> Document:
    """Truncate to 150 tokens; shorter documents are kept as they are.
    Mentions fully beyond the cut are dropped; spans crossing it are
    clipped."""
    tokens = doc.tokens[:MAX_DOC_TOKENS]
    kept = len(tokens)
    mentions = []
    for m in doc.mentions:
        s, e = m.token_span
        if s >= kept:
            continue
        mentions.append(m if e < kept else replace(m, token_span=(s, kept - 1)))
    edges = [(i, j, r) for i, j, r in doc.dep_edges if i < kept and j < kept]
    return Document(doc.id, doc.source, doc.text, tokens, mentions, edges)


def normalize_corpus(docs: list[Document], instances: list[RelationInstance]
                     ) -> tuple[list[Document], list[RelationInstance]]:
    """Normalize every document and drop/remap instances whose mentions
    were truncated away."""
    out_docs = []
    remap: dict[str, dict[int, int]] = {}
    for doc in docs:
        norm = normalize_length(doc)
        out_docs.append(norm)
        surviving = {}
        cursor = 0
        for old_idx, m in enumerate(doc.mentions):
            if cursor < len(norm.mentions) and (
                    norm.mentions[cursor].id == m.id):
                surviving[old_idx] = cursor
                cursor += 1
        remap[doc.id] = surviving
    out_instances = []
    for inst in instances:
        mapping = remap.get(inst.doc_id, {})
        if inst.head in mapping and inst.tail in mapping:
            out_instances.append(replace(
                inst, head=mapping[inst.head], tail=mapping[inst.tail]))
    return out_docs, out_instances


# ---------------------------------------------------------------------------
# Fold planning

def make_folds(instances: list[RelationInstance], k: int, seed: int) -> FoldPlan:
    """Seeded shuffle then round-robin assignment; fold sizes differ by
    at most one."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if len(instances) < k:
        raise ValueError(f"{k} folds need at least {k} instances, "
                         f"got {len(instances)}")
    ids = [inst.iid for inst in instances]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate instance ids")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignment = {ids[idx]: rank % k for rank, idx in enumerate(order)}
    return FoldPlan(k, assignment, seed)


# ---------------------------------------------------------------------------
# Synthetic pathology-style corpus

@dataclass
class SynthCorpus:
    documents: list[Document]
    instances: list[RelationInstance]
    counts: dict[str, int]  # declared positive instances per kind
    cue_positive: str
    cue_negative: str


_ORGANS = ("kidney", "breast", "lung", "colon", "prostate", "stomach")
_SIDES = ("left", "right", "bilateral")
_SUBTYPES = ("clear cell", "papillary", "ductal", "lobular", "mucinous",
             "tubular")
_GRADES = ("I", "II", "III", "IV")
_T = ("pT1a", "pT1b", "pT2", "pT3b")
_N = ("N0", "N1", "NX")
_M = ("M0", "MX")
_FILLERS_A = ("the margins are free of tumor .",
              "no vascular invasion is identified .",
              "the specimen is received in formalin .")
_FILLERS_B = ("sections show viable tumor tissue .",
              "special stains were reviewed by the attending pathologist .",
              "clinical correlation is recommended .")


def _value_phrase(kind: str, rng: np.random.Generator) -> str:
    if kind == "Type":
        return f"primary tumor of the {rng.choice(_ORGANS)}"
    if kind == "Site":
        return str(rng.choice(_SIDES))
    if kind == "Size":
        return f"maximum diameter of the neoplasm is {rng.integers(1, 30)} cm"
    if kind == "Subtype":
        return f"{rng.choice(_SUBTYPES)} type"
    if kind == "Grade":
        return f"nuclear grade {rng.choice(_GRADES)}"
    if kind == "TNM":
        return f"{rng.choice(_T)} {rng.choice(_N)} {rng.choice(_M)}"
    if kind == "Metas":
        return f"regional lymph nodes {rng.integers(0, 4)} / {rng.integers(4, 9)}"
    raise ValueError(f"unknown kind {kind!r}")


def synth_corpus(counts: dict[str, int], seed: int, reports: int | None = None,
                 distractors: bool = True, source: str = "synthetic",
                 style: str = "a") -> SynthCorpus:
    """Template-generated pathology-style reports with planted relations.

    Each report carries an anchor Type mention; for every requested kind
    the chosen reports get one linked value mention introduced by the
    positive cue word, plus (optionally) one unlinked distractor of the
    same kind introduced by the negative cue. Generation is
    seed-deterministic and the declared per-kind positive counts are
    returned alongside the corpus.
    """
    for kind, c in counts.items():
        if kind not in PATHOLOGY_KINDS:
            raise ValueError(f"unknown kind {kind!r} in counts")
        if c < 0:
            raise ValueError(f"negative count for {kind!r}")
    if style not in ("a", "b"):
        raise ValueError(f"synthetic style must be 'a' or 'b', got {style!r}")
    n_reports = reports if reports is not None else max(counts.values(), default=0)
    if any(c > n_reports for c in counts.values()):
        raise ValueError("per-kind count exceeds report count")

    cue_pos, cue_neg = "noted", "previously"
    fillers = _FILLERS_A if style == "a" else _FILLERS_B
    rng = np.random.default_rng(seed)
    linked_docs = {
        kind: set(rng.choice(n_reports, size=c, replace=False).tolist())
        for kind, c in counts.items()
    }

    docs: list[Document] = []
    records: list[dict] = []
    for i in range(n_reports):
        segments: list[tuple[str, str | None, bool]] = []  # (text, kind, linked)
        if style == "a":
            segments.append((f"case {i:04d} :", None, False))
            segments.append(("specimen diagnosis :", None, False))
        else:
            segments.append((f"report {i:04d} received .", None, False))
            segments.append(("final diagnosis reads", None, False))
        segments.append(("carcinoma", "anchor", False))
        segments.append((".", None, False))
        for kind in PATHOLOGY_KINDS:
            if kind not in counts:
                continue
            hit = i in linked_docs[kind]
            if hit:
                segments.append((cue_pos, None, False))
                segments.append((_value_phrase(kind, rng), kind, True))
                segments.append((".", None, False))
            if distractors and hit:
                segments.append((cue_neg, None, False))
                segments.append((_value_phrase(kind, rng), kind, False))
                segments.append((".", None, False))
        segments.append((str(rng.choice(fillers)), None, False))

        text_parts: list[str] = []
        cursor = 0
        mention_specs: list[tuple[str, int, int, bool]] = []
        for seg_text, kind, linked in segments:
            if text_parts:
                cursor += 1  # joining space
            start = cursor
            text_parts.append(seg_text)
            cursor += len(seg_text)
            if kind is not None:
                mention_specs.append((kind, start, cursor, linked))
        text = " ".join(text_parts)

        mentions = []
        relations = []
        anchor_idx = None
        for kind, start, end, linked in mention_specs:
            idx = len(mentions)
            if kind == "anchor":
                anchor_idx = idx
                mentions.append({"kind": "Type", "char_start": start,
                                 "char_end": end})
            else:
                mentions.append({"kind": kind, "char_start": start,
                                 "char_end": end})
                if linked:
                    relations.append({"head": anchor_idx, "tail": idx,
                                      "kind": kind})
        records.append({"id": f"synth{i:05d}", "source": source, "text": text,
                        "mentions": mentions, "relations": relations})

    instances: list[RelationInstance] = []
    for lineno, rec in enumerate(records, start=1):
        doc, inst = _record_to_document(rec, f"synthetic record {lineno}")
        docs.append(doc)
        instances.extend(inst)
    declared = dict(counts)
    return SynthCorpus(docs, instances, declared, cue_pos, cue_neg)
