"""The README's examples work: its python fence runs, its json fence
loads as a valid presentation, and each command of its command-line
fence exits 0."""

import re
import shlex
from pathlib import Path

from loophomology import cli
from loophomology.simplicial import presentation_from_json, validate

README = Path(__file__).resolve().parents[1] / "README.md"


def fences(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_python_fence_runs(capsys):
    (code,) = fences("python")
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
    assert printed[1].startswith("2 [")  # the hat slice is truncated at length 2


def test_json_fence_loads():
    (text,) = fences("json")
    X = presentation_from_json(text, source=str(README))
    assert validate(X) == []


def test_command_line_examples_exit_0(capsys):
    text = README.read_text(encoding="utf-8")
    (fence,) = re.findall(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for line in fence.replace("\\\n", " ").splitlines()
    ]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 6
    for program, *argv in commands:
        assert program == "loophomology"
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out
