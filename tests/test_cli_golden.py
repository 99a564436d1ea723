"""Exact CLI output on command lines whose reports hold no floats.

Each record in cli_golden.json holds the exit code, the stderr text and the
sha256 of the stdout text that ``cli.main(argv.split())`` gave at the commit
named in its ``recorded_at`` field.  The lines cover face-numbers, nbc-bases
and link under fixed orders, the long-edge gadget, the four reductions, the
counting oracles, and exit-2 and exit-3 refusals.  A refactor that claims
byte-identical reports must leave every record matching.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nbcwalk import cli

RECORDS = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS["commands"], ids=lambda r: r["argv"])
def test_output_matches_the_record(record, capsys):
    code = cli.main(record["argv"].split())
    out, err = capsys.readouterr()
    got = {"exit": code, "stderr": err, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    expected = {key: record[key] for key in got}
    assert got == expected, f"`{record['argv']}` differs from its record"
