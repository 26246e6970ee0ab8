"""Read, replay and rewrite the golden CLI transcripts in ``cli.txt``.

Each case of ``cli.txt`` is one ``qt2ec`` call: its arguments and its
stdin, then its exit code, stdout and stderr as the CLI gave them when the
file was last written.  ``tests/test_cli_golden.py`` replays every case
in-process through ``qt2ec.cli.main`` and compares all three byte for
byte.  After a deliberate change of the CLI's output, rewrite the file
from the repository root and read its diff:

    PYTHONPATH=src python tests/golden/rewrite_cli.py

The script keeps each case's arguments and stdin, in order, and writes
what the CLI gives now.  To add a case, add its ``$`` line (and any ``<``
lines) to ``cli.txt`` and run the script.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

from qt2ec.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli.txt")

HEADER = """\
# Golden transcripts of the qt2ec CLI, replayed in-process by
# tests/test_cli_golden.py and rewritten by tests/golden/rewrite_cli.py.
#
# A case opens with "$ qt2ec ARGS".  Then come its stdin lines, each
# after "< ", its exit code after "= ", its stdout lines, each after "| ",
# and its stderr lines, each after "! ".  Every line is shown without its
# newline; a "\\ no newline" line after a block's last line says that the
# block does not end with one.  Lines starting with "#" and blank lines
# between cases are skipped.
"""

NO_NEWLINE = "\\ no newline"


def _block(prefix: str, text: str) -> list[str]:
    """The file lines of ``text`` after ``prefix``: one per line."""
    if not text:
        return []
    lines = text.split("\n")
    ended = lines[-1] == ""
    if ended:
        lines.pop()
    out = [f"{prefix} {line}" if line else prefix for line in lines]
    return out if ended else out + [NO_NEWLINE]


def parse(text: str) -> list[dict]:
    """The cases of a transcript file, in order, each a dict with ``argv``,
    ``stdin``, ``code``, ``stdout`` and ``stderr``."""
    cases: list[dict] = []
    blocks = {"<": "stdin", "|": "stdout", "!": "stderr"}
    last = None
    for number, line in enumerate(text.split("\n"), start=1):
        if line.startswith("$ qt2ec"):
            cases.append({"argv": shlex.split(line[len("$ qt2ec"):]), "code": None})
            cases[-1].update(dict.fromkeys(blocks.values(), ""))
            last = None
        elif line.startswith("#") or not line:
            continue
        elif not cases:
            raise ValueError(f"line {number}: {line!r} before the first case")
        elif line.startswith("= "):
            cases[-1]["code"] = int(line[2:])
        elif line == NO_NEWLINE and last is not None:
            cases[-1][last] = cases[-1][last][:-1]
        elif line[:1] in blocks and line[1:2] in ("", " "):
            last = blocks[line[0]]
            cases[-1][last] += line[2:] + "\n"
        else:
            raise ValueError(f"line {number}: cannot read {line!r}")
    return cases


def replay(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """``qt2ec.cli.main(argv)`` with ``stdin`` as its standard input:
    ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin.close()
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def render(cases: list[dict]) -> str:
    """The transcript file of ``cases``."""
    lines = [HEADER]
    for case in cases:
        lines.append("$ qt2ec " + shlex.join(case["argv"]))
        lines += _block("<", case["stdin"])
        lines.append(f"= {case['code']}")
        lines += _block("|", case["stdout"])
        lines += _block("!", case["stderr"])
        lines.append("")
    return "\n".join(lines)


def rewrite(path: Path = TRANSCRIPTS) -> None:
    cases = parse(path.read_bytes().decode("utf-8"))
    for case in cases:
        case["code"], case["stdout"], case["stderr"] = replay(case["argv"], case["stdin"])
    path.write_bytes(render(cases).encode("utf-8"))
    print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    rewrite()
