"""Byte-for-byte replay of a fixed corpus of ``hjtoric`` invocations.

``golden/cli.json`` lists argv, stdin (for ``-`` inputs), exit code and the
exact stdout of each invocation.  Any change to the printed output of these
commands, down to whitespace, fails here; a deliberate change of output
needs the corpus entry updated in the same change.
"""

import io
import json
from pathlib import Path

import pytest

from hjtoric.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
