"""README.md runs: each CLI example whose output it prints, and the library
sketch.  Commands and expected outputs are read from README.md itself, so
the README cannot drift from the program.  Every name the package exports
is used inside the package or named in README.md, and every error class is
raised by some module of the package."""

import ast
import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import circleact
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
    commands = {" ".join(shlex.split(command, comments=True)) for command, _ in examples}
    assert commands >= {
        "circleact invariants --weights 1,2",
        "circleact invariants --weights=-3,5",
        "circleact stratify --weights 2,2,3,4,6 --format json"
        " | circleact recover --diagram - --format json",
        "circleact roundtrip --weights 7,11,13",
        "circleact roundtrip --trials 1000 --seed 7",
        "circleact verify --weights 1,2 --trials 1000 --seed 3",
    }
    for command, lines in examples:
        assert run_pipeline(command).splitlines() == lines, command


def test_readme_library_sketch_runs():
    exec(section_block("## Library sketch", "python"), {})


def test_every_exported_name_has_a_caller():
    # A name only the tests use is a test oracle, not library API.
    package = Path(circleact.__file__).parent
    exported = {
        alias.asname or alias.name
        for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = sorted(n for n in exported - used if not re.search(rf"\b{n}\b", README))
    assert not unused, f"exported, but neither used in circleact nor named in README.md: {unused}"


def test_every_error_class_is_raised():
    # An error class that no module raises is a name with nothing behind it.
    package = Path(circleact.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(call, ast.Name):
                        raised.add(call.id)
    unraised = sorted(classes - raised - {"CircleActionError"})
    assert not unraised, f"defined in errors.py, but raised by no circleact module: {unraised}"
