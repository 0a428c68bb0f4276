"""Record the golden CLI outputs that tests/test_golden.py compares
against: ``--json`` stdout and exit code of ``check`` and ``report`` on
the shared test presets plus taft:5:11, and of ``double`` on two
presets.

Run from the repository root after a change that alters JSON output on
purpose, and commit the rewritten files with it:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import PRESET_NAMES  # noqa: E402

CHECKED = PRESET_NAMES + ["taft:5:11"]
DOUBLED = ["group:C3", "taft:2:13"]
CASES = ([["check", "--json", f"preset:{p}"] for p in CHECKED]
         + [["report", "--json", f"preset:{p}"] for p in CHECKED]
         + [["double", "--json", f"preset:{p}"] for p in DOUBLED])
INDEX = HERE / "cases.json"


def case_file(argv) -> str:
    """File name of a case's stdout, e.g. check_group-C2.json."""
    spec = argv[-1][len("preset:"):]
    return f"{argv[0]}_{re.sub(r'[^A-Za-z0-9]+', '-', spec)}.json"


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of ``fhalg.cli.main(argv)``, in-process."""
    from fhalg.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def record() -> None:
    index = []
    for argv in CASES:
        code, out = run(argv)
        name = case_file(argv)
        (HERE / name).write_text(out)
        index.append({"argv": argv, "exit": code, "stdout": name})
    INDEX.write_text(json.dumps(index, indent=1) + "\n")


if __name__ == "__main__":
    record()
