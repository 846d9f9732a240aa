"""Tests for tokenization, stemming, vocabulary, and IDF."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest

from relrank import text as text_module
from relrank.errors import ConfigError, DataError
from relrank.files import file_digest
from relrank.synthetic import generate_world
from relrank.text import (
    OOV_ID,
    IdfTable,
    TextPipeline,
    Vocabulary,
    compute_idf,
    default_stopwords,
    idf_value,
    porter_stem,
    process_corpus,
    process_queries,
    stopword_hash,
    tokenize,
)

# Reference outputs of the classic Porter algorithm, checked against its
# published step-by-step examples.
PORTER_VECTORS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing",
    "conflated": "conflat", "troubled": "troubl", "sized": "size",
    "hopping": "hop", "tanned": "tan", "falling": "fall", "hissing": "hiss",
    "fizzed": "fizz", "failing": "fail", "filing": "file",
    "happy": "happi", "sky": "sky",
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "conformabli": "conform", "radicalli": "radic", "differentli": "differ",
    "vileli": "vile", "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good", "revival": "reviv", "allowance": "allow",
    "inference": "infer", "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defens", "irritant": "irrit",
    "replacement": "replac", "adjustment": "adjust", "dependent": "depend",
    "adoption": "adopt", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler", "probate": "probat", "rate": "rate",
    "cease": "ceas", "controll": "control", "roll": "roll",
}


class TestPorterStemmer:
    def test_classic_vectors(self):
        for word, want in PORTER_VECTORS.items():
            assert porter_stem(word) == want, word

    def test_short_words_pass_through(self):
        for word in ["a", "be", "is", "on", "x", "q7"]:
            assert porter_stem(word) == word

    def test_inflections_collapse(self):
        # Different surface forms of one lemma must share a stem.
        families = [
            ["regulate", "regulated", "regulates", "regulating", "regulation"],
            ["connect", "connected", "connecting", "connection", "connections"],
            ["measure", "measured", "measuring"],
        ]
        for family in families:
            stems = {porter_stem(w) for w in family}
            assert len(stems) == 1, (family, stems)

    def test_case_folding_happens_before_stemming(self):
        pipe = TextPipeline()
        variants = ["regulated", "Regulated", "REGULATED"]
        outs = [pipe.process(v) for v in variants]
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0]) == 1


class TestTokenizer:
    def test_basic_splitting(self):
        assert tokenize("The cat, the hat!") == ["the", "cat", "the", "hat"]

    def test_digits_kept(self):
        assert tokenize("IL-6 levels in 2019") == ["il", "6", "levels", "in", "2019"]

    def test_single_letters_survive(self):
        # "vitamin d" must not lose its head noun.
        toks = TextPipeline().process("Vitamin D deficiency")
        assert toks[:2] == ["vitamin", "d"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("?!... --- ") == []

    def test_stopwords_removed(self):
        toks = TextPipeline().process("what does the drug do")
        assert "does" not in toks
        assert "the" not in toks
        assert "drug" in toks

    def test_deterministic(self):
        text = "Aspirin reduces the risk of cardiovascular events."
        pipe = TextPipeline()
        assert pipe.process(text) == pipe.process(text)


class TestStopwords:
    def test_hash_is_order_independent(self):
        assert stopword_hash(["the", "of", "and"]) == stopword_hash(["and", "the", "of"])

    def test_hash_changes_with_content(self):
        assert stopword_hash({"the", "of"}) != stopword_hash({"the"})

    def test_default_list_loads(self):
        stops = default_stopwords()
        assert "the" in stops and "of" in stops
        # No single-letter entries: they would break terms like "vitamin d".
        assert not any(len(w) == 1 for w in stops)


class TestVocabulary:
    def test_first_occurrence_order(self):
        vocab = Vocabulary(["b", "a", "b", "c", "a"])
        assert vocab.id_of("b") == 0
        assert vocab.id_of("a") == 1
        assert vocab.id_of("c") == 2
        assert len(vocab) == 3

    def test_oov_sentinel(self):
        vocab = Vocabulary(["x"])
        assert vocab.id_of("y") == OOV_ID
        assert "y" not in vocab and "x" in vocab

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        tokens = [f"t{i}" for i in rng.permutation(200)]
        vocab = Vocabulary(tokens)
        for tok in set(tokens):
            assert vocab.tokens()[vocab.id_of(tok)] == tok
        for tid, tok in enumerate(vocab.tokens()):
            assert vocab.id_of(tok) == tid


class TestIdf:
    def test_closed_form_examples(self):
        # Three docs; term "a" in all three, "b" in one.
        docs = [["a", "b"], ["a"], ["a"]]
        vocab = Vocabulary(t for d in docs for t in d)
        from relrank.text import ProcessedDocument
        processed = [ProcessedDocument(str(i), [vocab.id_of(t) for t in d])
                     for i, d in enumerate(docs)]
        idf = compute_idf(processed, len(vocab))
        assert idf.idf_of(vocab.id_of("a")) == pytest.approx(math.log(1 + 0.5 / 3.5))
        assert idf.idf_of(vocab.id_of("b")) == pytest.approx(math.log(1 + 2.5 / 1.5))

    def test_rarer_terms_score_higher(self):
        # Term k appears in the first k docs of a 100-doc corpus.
        from relrank.text import ProcessedDocument
        n = 100
        docs = []
        for i in range(n):
            terms = [k for k in range(1, n + 1) if i < k]
            docs.append(ProcessedDocument(str(i), terms))
        idf = compute_idf(docs, n + 1)
        vals = [idf.idf_of(k) for k in range(1, n + 1)]
        # df(k) = n - k + ... ; idf must be strictly monotone in df.
        for a, b in zip(vals, vals[1:]):
            assert b < a or math.isclose(b, a) is False
        assert all(v > 0 for v in vals)

    def test_unseen_term_fallback(self):
        idf = IdfTable(np.array([1.0]), doc_count=10)
        assert idf.idf_of(5) == pytest.approx(idf_value(0, 10))
        assert idf.idf_of(OOV_ID) == pytest.approx(idf_value(0, 10))

    def test_repeats_within_doc_count_once(self):
        from relrank.text import ProcessedDocument
        docs = [ProcessedDocument("0", [0, 0, 0]), ProcessedDocument("1", [1])]
        idf = compute_idf(docs, 2)
        assert idf.idf_of(0) == pytest.approx(idf_value(1, 2))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            compute_idf([], 0)


class TestCorpusIngestion:
    def _write(self, path, lines):
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")

    def test_title_abstract_concatenation(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [
            {"id": "d1", "title": "Vitamin D", "abstract": "Bone health."},
            {"id": "d2", "text": "Aspirin and headaches."},
        ])
        build = process_corpus(path, TextPipeline())
        assert [d.doc_id for d in build.documents] == ["d1", "d2"]
        d1_terms = [build.vocabulary.tokens()[t] for t in build.documents[0].terms]
        assert d1_terms == ["vitamin", "d", "bone", "health"]

    def test_empty_documents_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [
            {"id": "keep", "text": "aspirin trial"},
            {"id": "drop", "text": "the of and"},
        ])
        build = process_corpus(path, TextPipeline())
        assert [d.doc_id for d in build.documents] == ["keep"]
        assert build.skipped_empty == ["drop"]

    def test_all_empty_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [{"id": "x", "text": "the"}])
        with pytest.raises(ConfigError):
            process_corpus(path, TextPipeline())

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{broken\n')
        with pytest.raises(DataError, match=":2"):
            process_corpus(path, TextPipeline())

    def test_duplicate_doc_id_named_in_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [{"id": "d1", "text": "aspirin"},
                           {"id": "d2", "text": "trial"},
                           {"id": "d1", "text": "scan"}])
        with pytest.raises(DataError) as info:
            process_corpus(path, TextPipeline())
        assert str(info.value) == f"{path}:3: duplicate document id 'd1'"

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [{"text": "no id here"}])
        with pytest.raises(DataError, match="missing 'id'"):
            process_corpus(path, TextPipeline())

    @pytest.mark.parametrize("line, message", [
        ('{"id": "d1", "text": 5}', "text fields must be strings"),
        ('{"id": "d1", "text": null}', "text fields must be strings"),
        ('{"id": "d1", "title": 5, "abstract": "ok"}', "text fields must be strings"),
        ('{"id": "d1", "title": "ok", "abstract": ["x"]}', "text fields must be strings"),
        ('["d1", "text"]', "expected a JSON object"),
        ("7", "expected a JSON object"),
    ])
    def test_malformed_line_is_data_error(self, tmp_path, line, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d0", "text": "aspirin"}\n' + line + "\n")
        with pytest.raises(DataError, match=f":2: .*{message}"):
            process_corpus(path, TextPipeline())

    def test_null_title_counts_as_absent(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [{"id": "d1", "title": None, "abstract": "Bone health."}])
        build = process_corpus(path, TextPipeline())
        assert len(build.documents[0].terms) == 2

    def test_dates_carried_through(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [{"id": "d", "text": "x-ray scan", "date": "2004-01"}])
        build = process_corpus(path, TextPipeline())
        assert build.documents[0].date == "2004-01"

    def test_digest_tracks_file_bytes(self, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        self._write(p1, [{"id": "d", "text": "alpha beta"}])
        self._write(p2, [{"id": "d", "text": "alpha gamma"}])
        assert file_digest(p1) != file_digest(p2)
        assert file_digest(p1) == hashlib.sha256(p1.read_bytes()).hexdigest()


class TestQueryIngestion:
    def test_oov_terms_get_sentinel(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "d", "text": "aspirin trial"}) + "\n")
        build = process_corpus(corpus, TextPipeline())
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(json.dumps({"id": "q1", "text": "aspirin zzzunseen"}) + "\n")
        queries = process_queries(qpath, TextPipeline(), build.vocabulary)
        assert queries[0].terms[0] == build.vocabulary.id_of("aspirin")
        assert queries[0].terms[1] == OOV_ID
        assert queries[0].tokens == ["aspirin", "zzzunseen"]

    def test_empty_queries_dropped(self, tmp_path):
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(json.dumps({"id": "q1", "text": "the of"}) + "\n"
                         + json.dumps({"id": "q2", "text": "aspirin"}) + "\n")
        queries = process_queries(qpath, TextPipeline(), Vocabulary(["aspirin"]))
        assert [q.query_id for q in queries] == ["q2"]

    def test_cutoff_field(self, tmp_path):
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(json.dumps(
            {"id": "q", "text": "scan", "asof": "2010-06"}) + "\n")
        queries = process_queries(qpath, TextPipeline(), Vocabulary(["scan"]),
                                  cutoff_field="asof")
        assert queries[0].date_cutoff == "2010-06"

    def test_duplicate_query_id_named_in_error(self, tmp_path):
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(json.dumps({"id": "q1", "text": "aspirin"}) + "\n\n"
                         + json.dumps({"id": "q1", "text": "scan"}) + "\n")
        with pytest.raises(DataError) as info:
            process_queries(qpath, TextPipeline(), Vocabulary(["aspirin"]))
        assert str(info.value) == f"{qpath}:3: duplicate query id 'q1'"

    def test_malformed_query_rejected(self, tmp_path):
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(json.dumps({"id": "q"}) + "\n")
        with pytest.raises(DataError):
            process_queries(qpath, TextPipeline(), Vocabulary())

    @pytest.mark.parametrize("line, message", [
        ('{"id": "q1", "text": null}', "'text' must be a string"),
        ('{"id": "q1", "text": 5}', "'text' must be a string"),
        ('{"id": "q1", "text": ["aspirin"]}', "'text' must be a string"),
        ('"q1 aspirin"', "expected a JSON object"),
    ])
    def test_malformed_line_is_data_error(self, tmp_path, line, message):
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text('{"id": "q0", "text": "aspirin"}\n' + line + "\n")
        with pytest.raises(DataError, match=f":2: .*{message}"):
            process_queries(qpath, TextPipeline(), Vocabulary(["aspirin"]))


# Mixed case, digits, stopwords and repeated inflections, with words that
# stem to themselves, words that do not, and texts left empty.
HAND_DOCS = [
    "Regulated REGULATES regulating the Regulation of IL-6 in 2019",
    "Connections connected; CONNECTING connect -- what does the drug do?",
    "Vitamin D deficiency: the vitamins D2 and d3 were Measured, measuring 10",
    "THE of AND it",
    "ponies caresses ties happy sky hopping Hopping HOPPING relational",
    "",
    "Aspirin reduces the risk of cardiovascular events; aspirin 81mg daily",
]
HAND_QUERIES = [
    "regulation of vitamin d",
    "What does aspirin do",
    "the of",
    "hopefulness HOPPING conditional x7 IL 6",
]


def _oracle(text, stopwords):
    """What the pipeline promises: stem every non-stopword token."""
    return [porter_stem(t) for t in tokenize(text) if t not in stopwords]


def _write_jsonl(path, texts, prefix):
    path.write_text("".join(json.dumps({"id": f"{prefix}{i}", "text": t}) + "\n"
                            for i, t in enumerate(texts)))
    return path


class TestStemTable:
    @pytest.fixture(scope="class")
    def world(self):
        # The acceptance-5 synthetic world.
        return generate_world(seed=11, n_docs=2000, n_queries=200, dim=8,
                              doc_len=16, threshold_scale=1.25)

    @pytest.fixture
    def stem_calls(self, monkeypatch):
        """porter_stem's calls, counted by token."""
        calls = collections.Counter()

        def counting_stem(token):
            calls[token] += 1
            return porter_stem(token)

        monkeypatch.setattr(text_module, "porter_stem", counting_stem)
        return calls

    @pytest.mark.parametrize("source", ["hand", "world"])
    def test_corpus_and_queries_match_the_per_token_oracle(self, tmp_path, world,
                                                           source):
        if source == "hand":
            docs, queries = HAND_DOCS, HAND_QUERIES
        else:
            docs = [d["text"] for d in world.documents]
            queries = [q["text"] for q in world.queries]
        pipe = TextPipeline()
        stops = pipe.stopwords
        for text in docs + queries:
            assert pipe.process(text) == _oracle(text, stops), text

        build = process_corpus(_write_jsonl(tmp_path / "c.jsonl", docs, "d"),
                               TextPipeline())
        kept = [(f"d{i}", _oracle(t, stops)) for i, t in enumerate(docs)]
        kept = [(doc_id, toks) for doc_id, toks in kept if toks]
        vocab = Vocabulary(tok for _, toks in kept for tok in toks)
        assert build.vocabulary.tokens() == vocab.tokens()
        assert [(d.doc_id, d.terms) for d in build.documents] == [
            (doc_id, [vocab.id_of(t) for t in toks]) for doc_id, toks in kept]

    def test_each_distinct_token_is_stemmed_once_per_pipeline(self, tmp_path,
                                                              stem_calls):
        pipe = TextPipeline()
        build = process_corpus(_write_jsonl(tmp_path / "c.jsonl", HAND_DOCS, "d"),
                               pipe)
        process_queries(_write_jsonl(tmp_path / "q.jsonl", HAND_QUERIES, "q"),
                        pipe, build.vocabulary)
        seen = {t for text in HAND_DOCS + HAND_QUERIES for t in tokenize(text)}
        assert set(stem_calls) == seen - pipe.stopwords
        assert set(stem_calls.values()) == {1}

    def test_a_second_pipeline_starts_with_an_empty_table(self, stem_calls):
        first, second = TextPipeline(), TextPipeline()
        text = " ".join(HAND_DOCS)
        assert first.process(text) == second.process(text)
        distinct = set(tokenize(text)) - first.stopwords
        assert stem_calls == collections.Counter(dict.fromkeys(distinct, 2))
