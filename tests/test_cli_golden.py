"""The CLI's exact bytes: every case of ``tests/golden/cli.txt`` replayed
in-process.  After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/golden/rewrite_cli.py`` and read its diff."""

from __future__ import annotations

import runpy
import shlex
from pathlib import Path

GOLDEN = runpy.run_path(str(Path(__file__).with_name("golden") / "rewrite_cli.py"))


def test_every_golden_cli_transcript_replays_byte_for_byte():
    text = GOLDEN["TRANSCRIPTS"].read_bytes().decode("utf-8")
    cases = GOLDEN["parse"](text)
    # The file is as the rewrite script writes it, so every line was read.
    assert GOLDEN["render"](cases) == text
    assert len(cases) >= 30
    mismatched = []
    for case in cases:
        got = GOLDEN["replay"](case["argv"], case["stdin"])
        if got != (case["code"], case["stdout"], case["stderr"]):
            mismatched.append(f"qt2ec {shlex.join(case['argv'])}: got {got!r}")
    assert not mismatched, "\n".join(mismatched)
