"""Shared fixtures: a mock block-explorer server and synthetic Solidity corpora."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest


class _ExplorerHandler(BaseHTTPRequestHandler):
    """Canned get-source-code responses keyed by address.

    The server's ``behaviors`` dict maps an address to one of:
    ("ok", source_text), ("empty",), ("http", status_code),
    ("http_once", status_code, source_text), ("ratemsg",), ("raw", body),
    which answers HTTP 200 with ``body`` encoded as JSON, whatever its shape,
    ("bytes", data), which answers HTTP 200 with the bytes ``data`` as they are,
    ("short",), which sends half the body it announces and hangs up, or
    ("garbage",), which answers with a line that is not an HTTP status line.
    Unknown addresses answer with a default source derived from the address.
    The server's ``queries`` list gets each request's parsed query string.
    """

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query)
        self.server.queries.append(query)
        address = query.get("address", [""])[0].lower()
        behavior = self.server.behaviors.get(address, ("ok", None))

        if behavior[0] == "garbage":
            self.wfile.write(b"this is not http\r\n\r\n")
            return
        if behavior[0] == "http":
            self.send_response(behavior[1])
            self.end_headers()
            return
        if behavior[0] == "http_once":
            # answer with the status once, then behave like "ok"
            self.server.behaviors[address] = ("ok", behavior[2])
            self.send_response(behavior[1])
            self.end_headers()
            return
        if behavior[0] == "raw":
            body = behavior[1]
        elif behavior[0] == "ratemsg":
            body = {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"}
        elif behavior[0] == "empty":
            body = {"status": "1", "message": "OK",
                    "result": [{"SourceCode": "", "ABI": "", "CompilerVersion": ""}]}
        else:
            if behavior[0] == "ok" and behavior[1] is not None:
                source = behavior[1]
            else:
                source = f"contract C_{address[-6:]} {{}}"
            body = {"status": "1", "message": "OK",
                    "result": [{"SourceCode": source, "CompilerVersion": "v0.8.19"}]}
        payload = behavior[1] if behavior[0] == "bytes" else json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload[:len(payload) // 2] if behavior[0] == "short" else payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_explorer():
    server = HTTPServer(("127.0.0.1", 0), _ExplorerHandler)
    server.behaviors = {}
    server.queries = []
    # a short poll: shutdown() waits out the current one at every teardown
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def explorer_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/api"


# --- synthetic corpus ------------------------------------------------------
#
# Contracts of one kind share their working vocabulary (the way injected-bug
# corpora repeat the injected pattern) and stay pairwise distinct only through
# the contract name and numeric literals. Per-document one-off identifiers
# would otherwise dominate TF-IDF selection and drown the shared signal.


def reentrant_source(i: int) -> str:
    """A withdraw-style contract: low-level call before the balance update."""
    return f"""pragma solidity ^0.8.0;
// sample {i}
contract Reentrant{i} {{
    mapping(address => uint) balances;
    uint vaultTotal = {i + 2};
    function withdraw() public {{
        uint amount = balances[msg.sender];
        (bool sent, ) = msg.sender.call{{value: amount}}("");
        balances[msg.sender] = 0;
        vaultTotal = vaultTotal + amount;
    }}
}}
"""


def tx_origin_source(i: int) -> str:
    return f"""pragma solidity ^0.8.0;
contract Guarded{i} {{
    address owner;
    uint drainLevel = {i + 2};
    function drain() public {{
        require(tx.origin == owner);
        drainLevel = 0;
    }}
}}
"""


def timestamp_source(i: int) -> str:
    return f"""pragma solidity ^0.8.0;
contract Lottery{i} {{
    uint closingTime = {i + 2};
    function spin() public {{
        if (block.timestamp > closingTime) {{
            closingTime = now + {i + 1};
        }}
    }}
}}
"""


def access_control_source(i: int) -> str:
    """No regex signature: separability comes from shared suspicious vocab."""
    return f"""pragma solidity ^0.8.0;
contract Openable{i} {{
    address owner;
    uint dangerCap = {i + 2};
    function initOwner(address who) public {{
        owner = who;
    }}
    function destroyEverything() public {{
        selfdestruct(payable(owner));
    }}
}}
"""


def unchecked_source(i: int) -> str:
    return f"""pragma solidity ^0.8.0;
contract Payer{i} {{
    uint amountOwed = {i + 2};
    function payout(address payable to, uint amount) public {{
        to.send(amount);
        amountOwed = amountOwed - amount;
    }}
}}
"""


def clean_source(i: int) -> str:
    """Arithmetic-only contract without calls, guards, or timestamps."""
    return f"""pragma solidity ^0.8.0;
contract Counter{i} {{
    uint private total;
    uint stride = {i % 7 + 1};
    function bump(uint amount) public {{
        total = total + amount * stride;
    }}
    function read() public view returns (uint) {{
        return total;
    }}
}}
"""


def write_corpus(directory, sources: list[str], prefix: str = "c") -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, source in enumerate(sources):
        (directory / f"{prefix}{i:03d}.sol").write_text(source, "utf-8")
