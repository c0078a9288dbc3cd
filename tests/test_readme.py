"""The README's examples, run as written.

For the quick start, the location database, spec and FEC blocks are
written to files, the shown `rela check` command runs on them, and its
stdout must be the shown report byte for byte.  The FEC block is wrapped
for reading, so its objects are written back one per line.
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


def test_quick_start_reproduces(tmp_path, capsys):
    files = {
        "locations.json": block("json", "["),
        "change.spec": block("text", "regex edge"),
        "fecs.ndjson": "".join(json.dumps(obj) + "\n" for obj in
                               json_objects(block("json", '{"id"'))),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

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
