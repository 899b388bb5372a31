"""Detector tests.

REGEX_FIXTURES holds the hand-labeled snippet suite: every expected value
was derived by manually tracing the detector's pattern (and, for reentrancy,
the buffer discipline: open on a `call` line, append each later line, check
the whole buffer, then trim to 5). The acceptance suite re-runs this table.
"""

import pytest

from ethcluster.detect import (
    KINDS,
    REGEX_KINDS,
    detect_reentrancy,
    detect_timestamp,
    detect_tx_origin,
    detect_unchecked_call,
    detector_for,
    scan_corpus,
)
from ethcluster.errors import InvalidKind
from ethcluster.preprocess import preprocess_contract

CALL = 'msg.sender.call{value: v}("");'
BAL = "balances[msg.sender] = 0;"
PAD = "uint x = 1;"

# (case id, kind, lines, hand-traced expected flag)
REGEX_FIXTURES = [
    # --- reentrancy: buffer discipline traces -----------------------------
    ("re_call_then_balance", "reentrancy", [CALL, BAL], 1),
    ("re_balance_then_call", "reentrancy", [BAL, CALL], 0),
    ("re_empty", "reentrancy", [], 0),
    ("re_balance_only", "reentrancy", [BAL, PAD], 0),
    ("re_call_only", "reentrancy", [CALL, PAD, PAD], 0),
    # balance exactly 5 lines after the call: buffer holds all six lines
    ("re_gap5", "reentrancy", [CALL, PAD, PAD, PAD, PAD, BAL], 1),
    # balance 6 lines after: the call line was evicted, but the balance line
    # itself was just appended, so the scan still flags it
    ("re_gap6", "reentrancy", [CALL, PAD, PAD, PAD, PAD, PAD, BAL], 1),
    ("re_gap10", "reentrancy", [CALL] + [PAD] * 9 + [BAL], 1),
    # a call on the final line is never followed by a check pass
    ("re_call_last_line_same_line_balance", "reentrancy",
     ["balances[msg.sender].call(x);"], 0),
    ("re_same_line_with_successor", "reentrancy",
     ["balances[msg.sender].call(x);", PAD], 1),
    ("re_second_call_resets_then_hits", "reentrancy",
     [CALL, PAD, PAD, PAD, CALL, BAL], 1),
    ("re_intermediate_call_no_balance", "reentrancy",
     [CALL, PAD, CALL, PAD, PAD], 0),
    ("re_case_insensitive", "reentrancy", ["a.CALL(x);", "uint Balance = 1;"], 1),
    ("re_delegatecall_not_trigger", "reentrancy", ["a.delegatecall(x);", BAL], 0),
    ("re_calling_not_trigger", "reentrancy", ["calling(x);", BAL], 0),
    ("re_recall_not_trigger", "reentrancy", ["recall(x);", BAL], 0),
    ("re_callback_not_trigger", "reentrancy", ["callback(x);", BAL], 0),
    ("re_balanceOf_not_balance", "reentrancy", [CALL, "balanceOf(msg.sender);"], 0),
    ("re_dot_balance_matches", "reentrancy", [CALL, "user.balance = 0;"], 1),
    ("re_gap3", "reentrancy", [CALL, PAD, PAD, BAL], 1),
    ("re_call_word_boundary_via_paren", "reentrancy", ["(call)(x);", BAL], 1),
    ("re_balance_before_and_after", "reentrancy", [BAL, PAD, CALL, BAL], 1),

    # --- timestamp ---------------------------------------------------------
    ("ts_block_timestamp", "timestamp", ["if (block.timestamp > deadline) {"], 1),
    ("ts_knownow2", "timestamp", ["uint knownow2 = 1;"], 0),
    ("ts_empty", "timestamp", [], 0),
    ("ts_now_assignment", "timestamp", ["uint t = now;"], 1),
    ("ts_nowhere", "timestamp", ["nowhere(x);"], 0),
    ("ts_know", "timestamp", ["uint know = 2;"], 0),
    ("ts_snow", "timestamp", ["uint snow = 2;"], 0),
    ("ts_timestamps_plural", "timestamp", ["block.timestamps[0] = 1;"], 0),
    ("ts_no_dot", "timestamp", ["blocktimestamp()"], 0),
    ("ts_spaced_dot", "timestamp", ["block . timestamp"], 0),
    ("ts_capital_block", "timestamp", ["Block.timestamp"], 0),
    ("ts_capital_now", "timestamp", ["NOW"], 0),
    ("ts_now_plus_days", "timestamp", ["uint deadline = now + 1 days;"], 1),
    ("ts_require_guard", "timestamp", ["require(block.timestamp <= end);"], 1),
    ("ts_second_line", "timestamp", ["x = 1;", "y = now;"], 1),
    ("ts_bare_timestamp_word", "timestamp", ["timestamp = 3;"], 0),
    ("ts_now_entire_line", "timestamp", ["now"], 1),
    ("ts_modulo_expression", "timestamp", ["uint x = block.timestamp % 10;"], 1),
    ("ts_dot_now", "timestamp", ["a.now"], 1),
    ("ts_nower", "timestamp", ["nower block"], 0),
    ("ts_only_first_line_matches", "timestamp", ["now", PAD, PAD], 1),

    # --- tx.origin ----------------------------------------------------------
    ("tx_require_eq", "tx_origin", ["require(tx.origin == owner);"], 1),
    ("tx_emit_no_guard", "tx_origin", ["emit Log(tx.origin);"], 0),
    ("tx_empty", "tx_origin", [], 0),
    ("tx_if_neq", "tx_origin", ["if (tx.origin != admin) {"], 1),
    ("tx_leading_spaces", "tx_origin", ["    require(tx.origin == owner);"], 1),
    ("tx_tight_spacing", "tx_origin", ["require(tx.origin==owner)"], 1),
    ("tx_assignment_no_guard", "tx_origin", ["x = tx.origin;"], 0),
    ("tx_msg_sender_rhs", "tx_origin", ["require(tx.origin == msg.sender);"], 0),
    ("tx_origin_on_rhs", "tx_origin", ["require(msg.sender == tx.origin);"], 0),
    ("tx_underscore_ident", "tx_origin", ["if(tx.origin == _owner)"], 1),
    ("tx_digits_ident", "tx_origin", ["if (tx.origin == owner123) {"], 1),
    ("tx_require_neq", "tx_origin", ["require(tx.origin != attacker);"], 1),
    ("tx_not_line_anchored", "tx_origin", ["abc require(tx.origin == owner)"], 0),
    ("tx_padded_parens", "tx_origin", ["require( tx.origin == owner )"], 1),
    ("tx_missing_dot", "tx_origin", ["if (txorigin == owner)"], 0),
    ("tx_single_equals", "tx_origin", ["require(tx.origin = owner)"], 0),
    ("tx_triple_equals", "tx_origin", ["if (tx.origin === owner)"], 0),
    ("tx_uppercase", "tx_origin", ["REQUIRE(TX.ORIGIN == OWNER)"], 0),
    ("tx_rhs_is_dotted", "tx_origin", ["if (tx.origin != tx.origin)"], 0),
    ("tx_single_letter_ident", "tx_origin", ["    if(tx.origin==a)"], 1),
    ("tx_trailing_expression", "tx_origin", ["require(tx.origin == owner) && x"], 1),

    # --- unchecked low-level call -------------------------------------------
    ("uc_bare_send", "unchecked_call", ["to.send(amount);"], 1),
    ("uc_require_send", "unchecked_call", ["require(to.send(amount));"], 0),
    ("uc_empty", "unchecked_call", [], 0),
    ("uc_bare_call", "unchecked_call", ["addr.call(data);"], 1),
    ("uc_bool_capture", "unchecked_call", ["bool ok = addr.call(data);"], 0),
    ("uc_if_guard", "unchecked_call", ["if (addr.call(data)) revert();"], 0),
    ("uc_delegatecall", "unchecked_call", ["addr.delegatecall(data);"], 1),
    ("uc_staticcall", "unchecked_call", ["addr.staticcall(data);"], 1),
    ("uc_callcode", "unchecked_call", ["addr.callcode(data);"], 1),
    # the postfix pattern expects `.call(`; the braces syntax does not match it
    ("uc_braces_syntax_unmatched", "unchecked_call", ['addr.call{value: 1}(data);'], 0),
    ("uc_old_value_chain", "unchecked_call", ["addr.call.value(1)(data);"], 1),
    ("uc_bool_success_capture", "unchecked_call", ["bool success = x.send(y);"], 0),
    ("uc_success_word", "unchecked_call", ["success = x.send(y);"], 0),
    ("uc_transfer_not_listed", "unchecked_call", ["payable(to).transfer(amount);"], 0),
    ("uc_space_before_paren", "unchecked_call", ["to.send (amount)"], 0),
    ("uc_nested_args", "unchecked_call", ['a.call(abi.encodeWithSignature("f()"));'], 1),
    ("uc_ifx_not_prefix", "unchecked_call", ["ifx.call(y)"], 1),
    ("uc_required_not_prefix", "unchecked_call", ["required.call(x)"], 1),
    ("uc_prefix_on_other_line", "unchecked_call", ["bool ok;", "addr.call(data);"], 1),
    ("uc_multiline_require", "unchecked_call", ["require(", "addr.send(x));"], 1),
    ("uc_assignment_no_prefix_word", "unchecked_call", ["ok = address(this).call(data);"], 1),
]

_COUNTS = {}
for _, kind, _, _ in REGEX_FIXTURES:
    _COUNTS[kind] = _COUNTS.get(kind, 0) + 1


@pytest.mark.parametrize(
    "case_id,kind,lines,expected",
    [(c, k, l, e) for c, k, l, e in REGEX_FIXTURES],
    ids=[c for c, _, _, _ in REGEX_FIXTURES],
)
def test_fixture(case_id, kind, lines, expected):
    assert detector_for(kind)(lines) == expected


def test_at_least_20_fixtures_per_kind():
    for kind in REGEX_KINDS:
        assert _COUNTS[kind] >= 20, f"{kind} has only {_COUNTS.get(kind, 0)} fixtures"


class TestKinds:
    @pytest.mark.parametrize("name", KINDS)
    def test_detector_iff_keywords(self, name):
        kind = KINDS[name]
        assert (kind.detector is None) == (not kind.keywords)
        if kind.detector is None:
            with pytest.raises(InvalidKind):
                detector_for(name)
        else:
            assert detector_for(name) is kind.detector

    @pytest.mark.parametrize("word", sorted({w for kind in KINDS.values() for w in kind.keywords}))
    def test_keyword_survives_preprocessing(self, word):
        assert preprocess_contract(word).tokens == (word,)


class TestScanCorpus:
    def test_corpus_order(self):
        sources = ["contract A { uint x; }",
                   "contract B { function f() public { uint t = now; } }",
                   "contract C { uint y; }"]
        docs = [preprocess_contract(s) for s in sources]
        assert scan_corpus(docs, "timestamp") == [0, 1, 0]

    def test_access_control_has_no_pattern(self):
        docs = [preprocess_contract("contract A {}")]
        with pytest.raises(InvalidKind):
            scan_corpus(docs, "access_control")

    def test_unknown_kind(self):
        with pytest.raises(InvalidKind):
            scan_corpus([], "gas_griefing")

    def test_empty_corpus(self):
        assert scan_corpus([], "reentrancy") == []

    def test_comments_do_not_leak_into_flags(self):
        source = "contract A {\n// uses now for timing\nuint x;\n}"
        docs = [preprocess_contract(source)]
        assert scan_corpus(docs, "timestamp") == [0]


class TestProperties:
    def test_presence_detectors_monotone_under_appended_match(self):
        rng_lines = [
            ["uint a;"], ["contract Z {", "uint b;"], [], ["x = y + 1;"] * 4,
        ]
        matches = {
            detect_timestamp: "t = block.timestamp;",
            detect_tx_origin: "require(tx.origin == owner)",
            detect_unchecked_call: "a.send(b);",
        }
        for detector, matching_line in matches.items():
            for lines in rng_lines:
                assert detector(lines + [matching_line]) == 1
                flagged = lines + [matching_line, "uint tail;"]
                assert detector(flagged) == 1

    def test_purity_same_lines_same_flag(self):
        lines = [CALL, PAD, BAL]
        assert detect_reentrancy(lines) == detect_reentrancy(list(lines)) == 1
