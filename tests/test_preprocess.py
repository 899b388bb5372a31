import json
import logging
import re
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from ethcluster import preprocess
from ethcluster.errors import FormatError
from ethcluster.preprocess import (
    SOLIDITY_KEYWORDS,
    load_tokendocs,
    preprocess_contract,
    remove_keywords,
    save_tokendocs,
    strip_comments,
)


def oracle_strip_comments(source):
    """The reference scanner: one character at a time, left to right.

    Returns the stripped text and whether an unterminated block comment was
    met, which is when ``strip_comments`` must log its warning.
    """
    out = []
    unterminated = False
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n:
            nxt = source[i + 1]
            if nxt == "/":
                end = source.find("\n", i + 2)
                i = n if end == -1 else end
                continue
            if nxt == "*":
                end = source.find("*/", i + 2)
                if end == -1:
                    unterminated = True
                    i = n
                else:
                    i = end + 2
                continue
        out.append(ch)
        i += 1
    return "".join(out), unterminated


# ``_COMMENT_RE`` before its block alternative was unrolled: the lazy form,
# kept as the reference the unrolled pattern must split exactly like.
REFERENCE_COMMENT_RE = re.compile(r"/(?:/[^\n]*|\*.*?\*/|(\*.*))", re.DOTALL)


def strip_and_warned(source):
    """``strip_comments`` output, and whether it logged a warning."""
    with mock.patch.object(preprocess.logger, "warning") as warning:
        out = strip_comments(source)
    return out, warning.called


# Text dense in comment markers, newlines and quotes.
_marker_text = st.text(alphabet=st.sampled_from(list("/*/*\n\n \"'ab")), max_size=60)


class TestStripCommentsAgainstOracle:
    @pytest.mark.parametrize("source", [
        "a /* b */ c",
        "a /* b */ c /* d */ e",
        "/*/",
        "/*/ x */ y",
        "a /",
        "/",
        "// a /* b",
        "// a /* b\nc */ d",
        "a /* b */ c /* unterminated",
        "x /* never closed\n// still inside",
        "a */ b",
        "a ///* b\nc",
    ])
    def test_explicit_cases(self, source):
        assert strip_and_warned(source) == oracle_strip_comments(source)

    @given(_marker_text)
    def test_matches_oracle_and_warns_when_it_meets_an_unterminated_block(self, source):
        assert strip_and_warned(source) == oracle_strip_comments(source)


# Text dense in slashes, stars, runs of stars and newlines.
_star_text = st.lists(st.sampled_from(["/", "*", "**", "***", "\n", "a", " "]),
                      max_size=60).map("".join)

_STAR_CASES = ["/**/", "/***/", "/* ** */", "/*a*b*/c*/", "/*/*/", "/*\n*/", "/**"]


class TestUnrolledBlockComment:
    @pytest.mark.parametrize("source", _STAR_CASES)
    def test_star_cases_match_the_oracle(self, source):
        assert strip_and_warned(source) == oracle_strip_comments(source)

    @pytest.mark.parametrize("source", _STAR_CASES)
    def test_star_cases_split_like_the_lazy_pattern(self, source):
        assert preprocess._COMMENT_RE.split(source) == REFERENCE_COMMENT_RE.split(source)

    @given(_star_text)
    def test_splits_like_the_lazy_pattern(self, source):
        assert preprocess._COMMENT_RE.split(source) == REFERENCE_COMMENT_RE.split(source)


class TestStripComments:
    def test_line_comment_keeps_newline(self):
        assert strip_comments("uint x; // note\n") == "uint x; \n"

    def test_block_comment_across_lines(self):
        assert strip_comments("a /* b\nc */ d") == "a  d"

    def test_identity_without_comments(self):
        assert strip_comments("no comments here") == "no comments here"

    def test_line_comment_at_eof_without_newline(self):
        assert strip_comments("x; // tail") == "x; "

    def test_nested_markers_inside_block(self):
        assert strip_comments("a /* // inner */ b") == "a  b"

    def test_block_marker_inside_line_comment(self):
        assert strip_comments("x // open /* still line\ny") == "x \ny"

    def test_unterminated_block_strips_to_end(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ethcluster.preprocess"):
            assert strip_comments("a /* never closed\nmore") == "a "
        assert any("unterminated" in rec.message for rec in caplog.records)

    def test_slash_alone_is_kept(self):
        assert strip_comments("a / b") == "a / b"

    def test_newlines_outside_block_interiors_preserved(self):
        source = "l1 // c\nl2\nl3 /* x */ end\n"
        assert strip_comments(source).count("\n") == source.count("\n")


def _one_line(source):
    """The contract's words on one line: the text that tokens are cut from."""
    return " ".join(preprocess._words(strip_comments(source)))


class TestNormalize:
    def test_punctuation_becomes_space(self):
        assert _one_line("x = 1;") == "x 1"

    def test_empty(self):
        assert _one_line("") == ""

    def test_whitespace_collapse(self):
        assert _one_line("a\n\n  b") == "a b"

    def test_tabs_collapse_too(self):
        assert _one_line("a\t\tb") == "a b"

    def test_dotted_version_splits(self):
        assert _one_line("^0.8.0") == "0 8 0"

    def test_underscore_is_punctuation(self):
        assert _one_line("my_var") == "my var"

    @given(st.text(max_size=300))
    def test_idempotent(self, s):
        assert _one_line(_one_line(s)) == _one_line(s)

    @given(st.text(max_size=300))
    def test_single_spaced(self, s):
        out = _one_line(s)
        assert "  " not in out
        assert out == out.strip()


class TestRemoveKeywords:
    def test_contract_removed(self):
        assert remove_keywords(["contract", "MyToken"]) == ["MyToken"]

    def test_call_and_balances_survive(self):
        assert remove_keywords(["call", "balances"]) == ["call", "balances"]

    def test_empty(self):
        assert remove_keywords([]) == []

    def test_case_sensitive(self):
        # Solidity keywords are lowercase; identifiers that differ by case stay
        assert remove_keywords(["Contract", "contract"]) == ["Contract"]

    def test_keyword_list_has_52_entries(self):
        assert len(SOLIDITY_KEYWORDS) == 52


class TestPreprocessContract:
    def test_pragma_line(self):
        doc = preprocess_contract("pragma solidity ^0.8.0;\nuint x = 1;")
        assert list(doc.tokens) == ["0", "8", "0", "x", "1"]

    def test_all_comment_file(self):
        doc = preprocess_contract("// only a comment\n/* and a block */")
        assert doc.tokens == ()

    def test_single_word(self):
        assert list(preprocess_contract("foo").tokens) == ["foo"]

    def test_lines_view_matches_strip_comments(self):
        source = "contract A { // x\n  uint b;\n}\n"
        doc = preprocess_contract(source)
        assert list(doc.lines) == strip_comments(source).split("\n")

    def test_deterministic(self):
        source = "contract A { uint x = 1; }"
        assert preprocess_contract(source) == preprocess_contract(source)

    def test_hash_matches_source_hash(self):
        """``preprocess_corpus`` names each document by its record's ``source_hash``."""
        from ethcluster.ingest import CLEAN, ContractRecord, Dataset
        from ethcluster.pipeline import preprocess_corpus

        records = [ContractRecord.build("local", f"0x{i:040x}", f"contract A{i} {{}}")
                   for i in range(3)]
        docs = preprocess_corpus(Dataset(tuple((rec, CLEAN) for rec in records)))
        assert [d.contract_hash for d in docs] == [rec.source_hash for rec in records]
        assert docs == [preprocess_contract(rec.source, rec.source_hash) for rec in records]

    @given(st.text(max_size=300))
    def test_tokens_are_the_normalized_words_minus_keywords(self, s):
        assert list(preprocess_contract(s).tokens) == remove_keywords(_one_line(s).split())

    @given(st.text(max_size=300))
    def test_no_reserved_tokens_survive(self, s):
        doc = preprocess_contract(s)
        assert not set(doc.tokens) & SOLIDITY_KEYWORDS

    @given(st.text(max_size=300))
    def test_tokens_have_no_whitespace_or_punctuation(self, s):
        import string

        bad = set(string.punctuation) | set(string.whitespace)
        for token in preprocess_contract(s).tokens:
            assert not set(token) & bad


class TestTokenDocsFile:
    SOURCES = ["contract A { // x\n  uint b = 1;\n}\n", "", "contract B { address owner; }"]

    def test_round_trip(self, tmp_path):
        docs = [preprocess_contract(s) for s in self.SOURCES]
        path = tmp_path / "tokens.json"
        save_tokendocs(docs, path)
        assert load_tokendocs(path) == docs

    def test_missing_key_is_format_error(self, tmp_path):
        path = tmp_path / "tokens.json"
        save_tokendocs([preprocess_contract(s) for s in self.SOURCES], path)
        payload = json.loads(path.read_text("utf-8"))
        del payload["docs"][2]["lines"]
        path.write_text(json.dumps(payload), "utf-8")
        with pytest.raises(FormatError):
            load_tokendocs(path)

    def test_bad_json_is_format_error(self, tmp_path):
        path = tmp_path / "tokens.json"
        path.write_text('[{"contract_hash": ', "utf-8")
        with pytest.raises(FormatError):
            load_tokendocs(path)
