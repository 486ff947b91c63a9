"""README.md runs: each CLI example whose output it prints, and the library
sketch.  Commands and expected outputs are read from README.md itself, so
the README cannot drift from the program."""

import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

from circleact.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section_block(heading: str, language: str) -> str:
    """The first fenced `language` block after the `heading` line."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {language} block under {heading!r}"
    return match.group(1)


def printed_examples() -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each command in the CLI block that is
    followed by `# ` lines; a trailing backslash continues a command."""
    examples = []
    for line in section_block("## CLI", "sh").replace("\\\n", " ").splitlines():
        if line.startswith("# "):
            examples[-1][1].append(line[2:])
        elif line.strip():
            examples.append((line, []))
    return [(command, lines) for command, lines in examples if lines]


def run_pipeline(command: str) -> str:
    """Each `circleact …` stage through cli.main in process, stdout piped on."""
    text = ""
    for stage in command.split(" | "):
        program, *argv = shlex.split(stage, comments=True)
        assert program == "circleact", stage
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out):
                assert main(argv) == 0, stage
        finally:
            sys.stdin = saved
        text = out.getvalue()
    return text


def test_readme_cli_examples_print_what_the_readme_shows():
    examples = printed_examples()
    commands = {" ".join(command.split()) for command, _ in examples}
    assert commands >= {
        "circleact invariants --weights 1,2",
        "circleact invariants --weights=-3,5",
        "circleact stratify --weights 2,2,3,4,6 --format json"
        " | circleact recover --diagram - --format json",
        "circleact roundtrip --weights 7,11,13",
        "circleact roundtrip --trials 1000 --seed 7",
    }
    for command, lines in examples:
        assert run_pipeline(command).splitlines() == lines, command


def test_readme_library_sketch_runs():
    exec(section_block("## Library sketch", "python"), {})
