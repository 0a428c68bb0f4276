"""Golden regression: the CLI's ``--json`` output and exit code, byte
for byte, against the files in tests/golden (rewritten by
tests/golden/record.py when an output changes on purpose)."""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record import INDEX, run  # noqa: E402

CASES = json.loads(INDEX.read_text())


@pytest.mark.parametrize("case", CASES,
                         ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case):
    code, out = run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / case["stdout"]).read_text()
