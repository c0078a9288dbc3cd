"""The README's examples, run as written.

For the quick start, the location database, spec and FEC blocks are
written to files, the shown `rela check` command runs on them, and its
stdout must be the shown report byte for byte.  The FEC block is wrapped
for reading, so its objects are written back one per line.  The "Library
use" code blocks run in order, as written, beside those files.
"""

import json
import re
import shlex
from pathlib import Path

from rela.cli import main
from rela.frontend import Granularity, LocationDb, parse_program

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)


def block(lang, starts):
    found = [body for kind, body in BLOCKS
             if kind == lang and body.startswith(starts)]
    assert len(found) == 1, f"expected one {lang} block starting {starts!r}"
    return found[0]


def json_objects(text):
    decoder, out, at = json.JSONDecoder(), [], 0
    while True:
        while at < len(text) and text[at].isspace():
            at += 1
        if at == len(text):
            return out
        obj, at = decoder.raw_decode(text, at)
        out.append(obj)


def quick_start_files(directory):
    """Write the quick start's three input files into `directory`."""
    files = {
        "locations.json": block("json", "["),
        "change.spec": block("text", "regex edge"),
        "fecs.ndjson": "".join(json.dumps(obj) + "\n" for obj in
                               json_objects(block("json", '{"id"'))),
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return files


def test_quick_start_reproduces(tmp_path, capsys):
    files = quick_start_files(tmp_path)

    command = shlex.split(block("sh", "rela check"))
    assert command[:2] == ["rela", "check"]
    argv = [str(tmp_path / arg) if arg in files else arg
            for arg in command[1:]]
    assert argv[-2:] == ["--format", "text"]

    code = main(argv)
    assert code == 1
    assert capsys.readouterr().out == block("text", "verdict:")


def test_guard_example_parses():
    index = LocationDb.from_json(block("json", "[")).build_index(
        Granularity.DEVICE)
    program = parse_program(block("text", "spec keep"), index)
    assert [g.name for g in program.guarded] == ["lab"]


def test_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    quick_start_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    section = README.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = [body for kind, body in re.findall(r"```(\w*)\n(.*?)```",
                                              section, re.S)
            if kind == "python"]
    assert len(code) == 3   # parsed FECs, raw lines, one FEC
    scope: dict = {}
    for body in code:
        exec(compile(body, "README.md", "exec"), scope)
    # the quick start's report: flow-1 fails arm `moved`, flow-2 passes
    totals = "{'pass': 1, 'fail': 1, 'unmatched': 0, 'error': 0}"
    assert capsys.readouterr().out.splitlines() == [
        f"fail {totals}",
        "fail moved ['x1 a1 y1', 'x1 a2 y1', 'x1 a3 y1']"]
    # the second block's report, from the raw lines, is not printed
    assert str(scope["report"].totals) == totals
