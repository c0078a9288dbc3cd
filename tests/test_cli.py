"""End-to-end command tests, run in process through main()."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rela.checker
import rela.cli
from rela.cli import main

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "bench"))

import corpus  # noqa: E402

DEVICES = [("x1", "X"), ("a1", "A"), ("a2", "A"), ("b1", "B"), ("d1", "D")]

PRESERVE_ALL = "spec main := { .* : preserve; }\n"


def chain_graph(*devices):
    nodes = [{"id": f"n{i}", "loc": d} for i, d in enumerate(devices)]
    edges = [[f"n{i}", f"n{i+1}"] for i in range(len(devices) - 1)]
    return {"nodes": nodes, "edges": edges,
            "sources": ["n0"], "sinks": [f"n{len(devices)-1}"]}


def fec_line(fec_id, pre, post, dst="10.0.0.0/24"):
    return json.dumps({"id": fec_id, "traffic": {"dstPrefix": dst},
                       "pre": chain_graph(*pre), "post": chain_graph(*post)})


def write_world(tmp_path, fec_lines, spec_text=PRESERVE_ALL):
    rows = [{"name": f"{d}:eth0", "device": d, "group": g}
            for d, g in DEVICES]
    locations = tmp_path / "locations.json"
    locations.write_text(json.dumps(rows), encoding="utf-8")
    spec = tmp_path / "change.spec"
    spec.write_text(spec_text, encoding="utf-8")
    fecs = tmp_path / "fecs.ndjson"
    fecs.write_text("".join(line + "\n" for line in fec_lines),
                    encoding="utf-8")
    return ["check", "--spec", str(spec), "--locations", str(locations),
            "--fecs", str(fecs)]


PASSING = [fec_line("f1", ("x1", "a1"), ("x1", "a1"))]
FAILING = [fec_line("f1", ("x1", "a1"), ("x1", "a1")),
           fec_line("f2", ("x1", "a1"), ("x1", "a2"))]


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        assert main(write_world(tmp_path, PASSING)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["totals"]["pass"] == 1

    def test_violations_are_one(self, tmp_path, capsys):
        assert main(write_world(tmp_path, FAILING)) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert doc["counterexamples"][0]["fec_id"] == "f2"

    def test_input_error_is_two(self, tmp_path, capsys):
        lines = PASSING + ["not json at all"]
        assert main(write_world(tmp_path, lines)) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "error"
        assert doc["totals"] == {"pass": 1, "fail": 0, "unmatched": 0,
                                 "error": 1}

    def test_missing_file_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING)
        argv[argv.index("--fecs") + 1] = str(tmp_path / "nope.ndjson")
        assert main(argv) == 2
        assert "rela: error:" in capsys.readouterr().err

    def test_spec_syntax_error_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING,
                           spec_text="spec main := { .* preserve }")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "rela: error:" in err and "change.spec:" in err

    def test_unknown_where_attribute_has_a_position(self, tmp_path, capsys):
        spec_text = 'spec main := { where(vendor == "x") .* : preserve; }'
        argv = write_world(tmp_path, PASSING, spec_text=spec_text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "change.spec:1:22: unknown attribute 'vendor'" in err

    def test_bad_location_db_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING)
        (tmp_path / "locations.json").write_text("{}", encoding="utf-8")
        assert main(argv) == 2
        assert "JSON array" in capsys.readouterr().err

    def test_usage_error_is_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--spec", "x"])
        assert exc.value.code == 2

    def test_bad_worker_count_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING) + ["--workers", "0"]
        assert main(argv) == 2
        assert "--workers" in capsys.readouterr().err

    def test_internal_error_is_three(self, tmp_path, capsys, monkeypatch):
        # A crash of the checker is not a verdict on the change.
        def crash(*args, **kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setattr("rela.cli.check_all", crash)
        argv = write_world(tmp_path, FAILING)
        assert main(argv + ["--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "rela: internal error: RuntimeError: checker bug" \
            in captured.err


class TestDeepZones:
    """Zone regexes far longer than the recursion limit still check."""

    @pytest.mark.parametrize("atoms", [900, 5000])
    def test_long_concatenation(self, tmp_path, capsys, atoms):
        # No FEC path is that long, so both FECs are outside the zone.
        zone = " ".join(["x1"] * atoms)
        spec_text = f"spec main := {{ {zone} : preserve; }}\n"
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        assert main(argv + ["--workers", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["pass"] == 2

    def test_wide_union(self, tmp_path, capsys):
        # 3000 two-hop alternatives; the zone holds x1 a1 and x1 a2, so
        # moving f2 from a1 to a2 is a violation.
        hops = ["a1", "a2", "b1", "d1"]
        zone = " | ".join(f"x1 {hops[i % 4]}" for i in range(3000))
        spec_text = f"spec main := {{ {zone} : preserve; }}\n"
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"pass": 1, "fail": 1, "unmatched": 0,
                                 "error": 0}
        assert doc["counterexamples"][0]["missing"]["paths"] == ["x1 a1"]


class TestLargeSpecs:
    """Spec size is limited by memory, not by the recursion limit."""

    def test_long_block(self, tmp_path, capsys):
        # Statement i matches paths of exactly i hops, so neither FEC's
        # two-hop path is in the zone of the whole block.
        stmts = " ".join(f"x1 : preserve;" for _ in range(4500))
        spec_text = f"spec main := {{ {stmts} }}\n"
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        assert main(argv + ["--workers", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["pass"] == 2

    def test_long_star_run(self, tmp_path, capsys):
        spec_text = "spec main := { x1" + "*" * 3000 + " . : preserve; }\n"
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["fail"] == 1

    def test_long_any_family(self, tmp_path, capsys):
        family = " ".join(["x1"] * 1500)
        spec_text = ("spec main := { x1 . : any(x1 a1 | " + family
                     + "); }\n")
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        # f2 moved from x1 a1 to x1 a2, outside the family
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"pass": 1, "fail": 1, "unmatched": 0,
                                 "error": 0}

    def test_long_else_chain(self, tmp_path, capsys):
        # Arm i preserves the one-hop path at device i mod 5; a one-hop
        # FEC that moves from a1 to a2 violates arm #2, the a1 arm.
        devices = [d for d, _ in DEVICES]
        arms = " else ".join(f"{devices[i % len(devices)]} : preserve"
                             for i in range(1100))
        lines = [fec_line("f1", ("x1",), ("x1",)),
                 fec_line("f2", ("a1",), ("a2",))]
        argv = write_world(tmp_path, lines,
                           spec_text=f"spec main := {arms}\n")
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_subspec"] == {"main/#2": 1}


    @staticmethod
    def definition_chain(count):
        # Each definition nests the one before it a level deeper, so the
        # zone is a tree `count` levels deep that the parser built
        # without recursion.
        last = f"r{count - 1}"
        defs = ["regex r0 := x1"] + [f"regex r{i} := (r{i - 1} | a1) a2*"
                                     for i in range(1, count)]
        return "\n".join(defs + [
            f"spec main := {{ {last} : preserve; }} else {{ .* : preserve; }}",
            ""])

    @pytest.mark.xfail(strict=True, reason="hashing and evaluating a rir "
                       "node recurse once per nesting level; a chain of "
                       "250 definitions overflows the stack")
    def test_long_definition_chain(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING,
                           spec_text=self.definition_chain(250))
        assert main(argv + ["--workers", "1"]) != 3

    def test_long_definition_chain_emits_rir(self, tmp_path, capsys):
        # the same chain checks without --emit-rir
        argv = write_world(tmp_path, PASSING,
                           spec_text=self.definition_chain(150))
        assert main(argv + ["--workers", "1"]) == 0
        assert main(argv + ["--workers", "1", "--emit-rir"]) == 0


class TestLongBooleanChains:
    """`and`/`or` chains are flat, so their length is not a nesting depth."""

    def test_long_guard(self, tmp_path, capsys):
        atoms = " or ".join(["dstPrefix == 10.0.0.0/8"] * 2000)
        spec_text = (PRESERVE_ALL.replace("main", "keep")
                     + f"pspec g := {atoms} -> keep\n")
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"pass": 1, "fail": 1, "unmatched": 0,
                                 "error": 0}

    def test_long_where(self, tmp_path, capsys):
        terms = " or ".join(['group == "A"'] * 1999 + ['device == "x1"'])
        spec_text = f"spec main := {{ where({terms}) . : preserve; }}\n"
        argv = write_world(tmp_path, FAILING, spec_text=spec_text)
        # the zone holds x1 a1 and x1 a2, so f2's move is a violation
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["fail"] == 1


class TestDeepNesting:
    """Nesting past the recursion limit is a spec error, exit 2."""

    @pytest.mark.parametrize("spec_text", [
        "spec main := { " + "(" * 600 + "x1" + ")" * 600 + " : preserve; }",
        "spec main := { " + "(" * 3000 + "x1" + ")" * 3000 + " : preserve; }",
        "spec main := " + "{ " * 800 + ".* : preserve" + " }" * 800,
        ("spec main := { where(" + "(" * 800 + 'group == "A"' + ")" * 800
         + ") : preserve; }"),
        ("spec main := { .* : preserve; }\npspec g := "
         + "not " * 2000 + "true -> main"),
    ], ids=["parens-600", "parens-3000", "blocks-800", "where-800",
            "not-2000"])
    def test_too_deep_is_two(self, tmp_path, capsys, spec_text):
        argv = write_world(tmp_path, PASSING, spec_text=spec_text + "\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the spec nests too deeply" in captured.err

    def test_moderate_nesting_checks(self, tmp_path, capsys):
        zone = "(" * 200 + "x1 ." + ")" * 200
        argv = write_world(tmp_path, FAILING,
                           spec_text=f"spec main := {zone} : preserve\n")
        assert main(argv + ["--workers", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["fail"] == 1


class TestMalformedNodeIds:
    """A non-string node reference is an input error of its own FEC."""

    BAD = [
        {"edges": [[["n0"], "n1"]]},
        {"sources": [{"a": 1}]},
        {"sinks": [["n1"]]},
    ]

    def lines(self):
        out = list(PASSING)
        for i, patch in enumerate(self.BAD):
            obj = json.loads(fec_line(f"bad{i}", ("x1", "a1"), ("x1", "a1")))
            obj["post"].update(patch)
            out.append(json.dumps(obj))
        return out

    def test_each_is_an_error_entry(self, tmp_path, capsys):
        argv = write_world(tmp_path, self.lines())
        assert main(argv + ["--workers", "1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"pass": 1, "fail": 0, "unmatched": 0,
                                 "error": 3}

    def test_strict_aborts(self, tmp_path, capsys):
        argv = write_world(tmp_path, self.lines()) + ["--strict"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FEC bad0" in captured.err and "unknown node" in captured.err

    def test_strict_message_same_at_any_worker_count(self, tmp_path, capsys):
        # graphs are checked in the workers; the first bad one still
        # aborts the run with the same message
        argv = write_world(tmp_path, self.lines()) + ["--strict"]
        errors = []
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors += [line for line in captured.err.splitlines()
                       if line.startswith("rela: error:")]
        assert len(errors) == 2 and errors[0] == errors[1]
        assert "FEC bad0" in errors[0] and "unknown node" in errors[0]


class TestStrict:
    def test_strict_aborts(self, tmp_path, capsys):
        lines = ["garbage"] + PASSING
        argv = write_world(tmp_path, lines) + ["--strict"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no report on abort
        assert "line 1" in captured.err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_strict_names_the_input_once(self, tmp_path, capsys, workers):
        # A graph error already names its FEC; a line that is not JSON
        # has no id, so the abort names the line instead.
        bad_graph = json.loads(fec_line("bad0", ("x1", "a1"), ("x1", "a1")))
        bad_graph["post"]["edges"].append(["n0", "n7"])
        cases = [
            (["garbage"] + PASSING,
             "rela: error: line 1: invalid JSON: Expecting value: "
             "line 1 column 1 (char 0)"),
            (PASSING + [json.dumps(bad_graph)],
             "rela: error: FEC bad0: post graph edge references unknown "
             "node 'n7'"),
        ]
        for lines, message in cases:
            argv = write_world(tmp_path, lines) + ["--strict",
                                                   "--workers", workers]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert [line for line in captured.err.splitlines()
                    if line.startswith("rela: error:")] == [message]

    def test_without_strict_continues(self, tmp_path, capsys):
        lines = ["garbage"] + PASSING
        assert main(write_world(tmp_path, lines)) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["pass"] == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_line_nested_past_the_decoder_limit(self, tmp_path, capsys,
                                                workers):
        # json.loads raises RecursionError on the nesting and a plain
        # ValueError on the integer past the int-to-str digit limit, not
        # JSONDecodeError
        for extra in ["[" * 5000 + "]" * 5000, "1" * 5000]:
            line = PASSING[0].replace('"edges"', f'"x": {extra}, "edges"', 1)
            argv = write_world(tmp_path, PASSING[:1] + [line])
            assert main(argv + ["--workers", workers]) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["totals"]["pass"] == 1
            [error] = doc["errors"]
            assert error["fec_id"] == "line 2"
            assert error["message"].startswith("invalid JSON: ")
            assert main(argv + ["--workers", workers, "--strict"]) == 2
            err = capsys.readouterr().err
            assert "rela: error: line 2: invalid JSON: " in err
            assert "Traceback" not in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 is an input error, never an internal one."""

    def test_spec_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING)
        spec = tmp_path / "change.spec"
        spec.write_bytes(PRESERVE_ALL.encode() + b"// \xff\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"rela: error: {spec}: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_locations_is_two(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING)
        locations = tmp_path / "locations.json"
        locations.write_bytes(
            locations.read_bytes().replace(b"d1:eth0", b"d1:eth\xff"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"rela: error: {locations}: location database is not " \
            "valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fec_line_is_an_error_entry(self, tmp_path, capsys, workers):
        lines = [fec_line(f"f{i}", ("x1", "a1"), ("x1", "a1"))
                 for i in range(3)]
        argv = write_world(tmp_path, lines)
        fecs = tmp_path / "fecs.ndjson"
        fecs.write_bytes(fecs.read_bytes().replace(b'"f1"', b'"f\xff"'))
        assert main(argv + ["--workers", workers]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["pass"] == 2
        [error] = doc["errors"]
        assert error["fec_id"] == "line 2"
        assert error["message"].startswith("invalid JSON: ")
        assert main(argv + ["--workers", workers, "--strict"]) == 2
        assert "line 2: invalid JSON" in capsys.readouterr().err


def run_cli(args, stdin: bytes):
    """`python -m rela.cli` in a child process, with `stdin` piped in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rela.cli", *args],
                          input=stdin, capture_output=True, env=env,
                          timeout=120)


class TestPipedInput:
    """An input read from a pipe is read once, for checking and hashing."""

    @pytest.fixture
    def world(self, tmp_path):
        answer = corpus.write_corpus("reroute-explain", 1, str(tmp_path), 0.1)
        return {"--spec": tmp_path / "change.spec",
                "--locations": tmp_path / "locations.json",
                "--fecs": tmp_path / "fecs.ndjson"}, answer

    def check_piped(self, world, flag, workers="1"):
        paths, answer = world
        argv = ["check", "--workers", workers]
        for name, path in paths.items():
            argv += [name, "/dev/stdin" if name == flag else str(path)]
        data = paths[flag].read_bytes()
        done = run_cli(argv, data)
        assert done.returncode == answer["exit_code"], done.stderr
        doc = json.loads(done.stdout)
        assert doc["totals"] == answer["totals"]
        return doc["metadata"], hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fecs(self, world, workers):
        meta, digest = self.check_piped(world, "--fecs", workers)
        assert meta["fecs_sha256"] == digest

    def test_spec(self, world):
        meta, digest = self.check_piped(world, "--spec")
        assert meta["spec_sha256"] == digest


class TestOutputs:
    def test_text_format(self, tmp_path, capsys):
        argv = write_world(tmp_path, FAILING) + ["--format", "text"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("verdict: fail\n")
        assert "FEC f2" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = write_world(tmp_path, PASSING) + ["--output", str(target)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_metadata_records_inputs(self, tmp_path, capsys):
        assert main(write_world(tmp_path, PASSING)) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["granularity"] == "device"
        for key in ("spec_sha256", "locations_sha256", "fecs_sha256"):
            assert len(meta[key]) == 64

    def test_phase_timings_on_stderr(self, tmp_path, capsys):
        assert main(write_world(tmp_path, PASSING)) == 0
        err = capsys.readouterr().err
        assert "rela: compiled 1 spec(s)" in err
        assert "rela: checked 1 FECs" in err

    def test_emit_rir(self, tmp_path, capsys):
        argv = write_world(tmp_path, PASSING) + ["--emit-rir"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "// main" in err
        assert "PreState" in err and "PostState" in err

    def test_max_counterexamples(self, tmp_path, capsys):
        lines = [fec_line(f"f{i}", ("x1", "a1"), ("x1", "a2"))
                 for i in range(4)]
        argv = write_world(tmp_path, lines) + ["--max-counterexamples", "2"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["counterexamples"]) == 2
        assert doc["counterexamples_truncated"] is True
        assert doc["per_subspec"] == {"main/main": 4}

    def test_text_with_no_counterexamples_kept(self, tmp_path, capsys):
        argv = write_world(tmp_path, FAILING) + [
            "--format", "text", "--max-counterexamples", "0"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "fail: 1" in out and "FEC f2" not in out
        assert out.endswith("\n\ncounterexample list truncated\n")


class TestEmitRirGoldens:
    """`--emit-rir` prints what the compiler built, unchanged over time.

    The goldens in tests/data/emit_rir hold an earlier version's output;
    regenerate one only for a deliberate change to the compiled form.
    """

    def emitted(self, capsys, spec, locations, fecs):
        main(["check", "--spec", str(spec), "--locations", str(locations),
              "--fecs", str(fecs), "--workers", "1", "--emit-rir"])
        err = capsys.readouterr().err
        return "".join(line for line in err.splitlines(True)
                       if not line.startswith("rela: "))

    @pytest.mark.parametrize("workload", ["preserve-scale",
                                          "reroute-explain"])
    def test_bench_spec(self, tmp_path, capsys, workload):
        corpus.write_corpus(workload, 1, str(tmp_path), 0.05)
        got = self.emitted(capsys, tmp_path / "change.spec",
                           tmp_path / "locations.json",
                           tmp_path / "fecs.ndjson")
        golden = TESTS / "data" / "emit_rir" / f"{workload}.txt"
        assert got == golden.read_text(encoding="utf-8")

    def test_scenario_spec(self, capsys):
        scenario = TESTS / "data" / "scenario"
        got = self.emitted(capsys, scenario / "change.spec",
                           scenario / "locations.json",
                           scenario / "fecs_v2.ndjson")
        golden = TESTS / "data" / "emit_rir" / "scenario.txt"
        assert got == golden.read_text(encoding="utf-8")

    def test_every_modifier_spec(self, capsys):
        # Every modifier, a multi-statement block as a later else arm and
        # an else inside a block, over the scenario's locations.
        scenario = TESTS / "data" / "scenario"
        goldens = TESTS / "data" / "emit_rir"
        got = self.emitted(capsys, goldens / "every-modifier.spec",
                           scenario / "locations.json",
                           scenario / "fecs_v2.ndjson")
        golden = goldens / "every-modifier.txt"
        assert got == golden.read_text(encoding="utf-8")


class TestUniverseWideListings:
    """Reports that list paths drawn from `.`, a wide `where()` class and
    their complements, over the scenario's locations.

    The goldens in tests/data/universe_wide were written before `.`
    became one default arc; a listing must spell a default out in
    symbol-id order to reproduce them.
    """

    GOLDENS = TESTS / "data" / "universe_wide"

    @pytest.mark.parametrize("name", ["add-anything", "replace-hop-by-drop",
                                      "remove-one-hop", "wide-where"])
    @pytest.mark.parametrize("fmt,suffix", [("json", "json"),
                                            ("text", "txt")])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_report_bytes(self, tmp_path, capsys, name, fmt, suffix,
                          workers):
        scenario = TESTS / "data" / "scenario"
        out = tmp_path / f"report.{suffix}"
        code = main(["check", "--spec", str(self.GOLDENS / f"{name}.spec"),
                     "--locations", str(scenario / "locations.json"),
                     "--fecs", str(scenario / "fecs_v2.ndjson"),
                     "--format", fmt, "--workers", workers,
                     "--output", str(out)])
        capsys.readouterr()
        assert code == 1
        golden = self.GOLDENS / f"{name}.{suffix}"
        assert out.read_bytes() == golden.read_bytes()


class TestGranularity:
    def test_group_level_masks_device_shift(self, tmp_path, capsys):
        # a1 and a2 are one group, so the shift is invisible at group
        # granularity but a violation at device granularity.  Interface
        # names resolve under every granularity.
        lines = [fec_line("f1", ("x1:eth0", "a1:eth0", "d1:eth0"),
                          ("x1:eth0", "a2:eth0", "d1:eth0"))]
        argv = write_world(tmp_path, lines)
        assert main(argv + ["--granularity", "group"]) == 0
        capsys.readouterr()
        assert main(argv) == 1

    def test_interface_granularity(self, tmp_path, capsys):
        lines = [fec_line("f1", ("x1:eth0", "a1:eth0"),
                          ("x1:eth0", "a1:eth0"))]
        argv = write_world(tmp_path, lines) + ["--granularity", "interface"]
        assert main(argv) == 0


    @pytest.mark.parametrize("granularity", ["interface", "device", "group"])
    def test_interface_named_drop_is_two(self, tmp_path, capsys,
                                         granularity):
        # `drop` names the drop symbol wherever a name resolves, so no
        # record may take it, whatever becomes the alphabet.
        argv = write_world(tmp_path, PASSING)
        locations = tmp_path / "locations.json"
        rows = json.loads(locations.read_text(encoding="utf-8"))
        rows.append({"name": "drop", "device": "b1", "group": "B"})
        locations.write_text(json.dumps(rows), encoding="utf-8")
        assert main(argv + ["--granularity", granularity]) == 2
        assert "'drop' is reserved" in capsys.readouterr().err


class TestGuards:
    SPEC = """spec keep := { .* : preserve; }
pspec lab := srcPrefix == 172.16.0.0/12 -> keep
pspec other := srcPrefix != 172.16.0.0/12 and dstPrefix == 10.0.0.0/8 -> keep
pspec outside := dstPrefix != 10.0.0.0/8 and not srcPrefix == 192.168.0.0/16
    -> keep
"""

    # (id, dstPrefix, srcPrefix, guard).  A missing srcPrefix is in no
    # block, so `!=` holds and `==` does not; an IPv6 prefix is in no
    # IPv4 block.  f5 fails `other` on its IPv6 destination and
    # `outside` on its source, so it is unmatched.
    FECS = [("f1", "10.1.0.0/16", "172.16.5.0/24", "lab"),
            ("f2", "10.1.0.0/16", None, "other"),
            ("f3", "10.1.0.0/16", "192.168.1.0/24", "other"),
            ("f4", "2001:db8::/32", None, "outside"),
            ("f5", "2001:db8::/32", "192.168.1.0/24", None),
            ("f6", "192.0.2.0/24", "172.16.0.0/16", "lab")]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_prefix_guards_pick_each_fec_spec(self, tmp_path, capsys,
                                              workers):
        # every FEC moves off a1, so each matched one fails and its
        # counterexample names the guard that picked its spec
        lines = []
        for fec_id, dst, src, _ in self.FECS:
            obj = json.loads(fec_line(fec_id, ("x1", "a1"), ("x1", "a2"),
                                      dst=dst))
            if src is not None:
                obj["traffic"]["srcPrefix"] = src
            lines.append(json.dumps(obj))
        argv = write_world(tmp_path, lines, spec_text=self.SPEC)
        assert main(argv + ["--workers", workers]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"pass": 0, "fail": 5, "unmatched": 1,
                                 "error": 0}
        assert doc["per_subspec"] == {"lab/keep": 2, "other/keep": 2,
                                      "outside/keep": 1}
        got = {cx["fec_id"]: (cx["guard"], cx["traffic"].get("srcPrefix"))
               for cx in doc["counterexamples"]}
        assert got == {fec_id: (guard, src)
                       for fec_id, _, src, guard in self.FECS if guard}


class TestWorkers:
    def test_reports_byte_identical_across_workers(self, tmp_path, capsys):
        lines = FAILING + [fec_line("f3", ("x1", "b1"), ("x1", "b1"))]
        argv = write_world(tmp_path, lines)
        assert main(argv + ["--workers", "1"]) == 1
        first = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 1
        second = capsys.readouterr().out
        assert first == second

    def test_deeply_nested_extra_key_at_two_workers(self, tmp_path, capsys):
        nested = []
        for _ in range(500):
            nested = [nested]
        lines = [fec_line(f"f{i}", ("x1", "a1"), ("x1", "a1"))
                 for i in range(5)]
        obj = json.loads(lines[2])
        obj["pre"]["extra"] = nested
        lines[2] = json.dumps(obj)
        argv = write_world(tmp_path, lines)
        assert main(argv + ["--workers", "1"]) == 0
        assert main(argv + ["--workers", "2"]) == 0

    def test_importing_the_cli_leaves_multiprocessing_out(self):
        # the pool's module loads only when a pool starts, and traceback
        # only on an internal error
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, rela.cli; print('multiprocessing' in sys.modules, "
             "'traceback' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"

    def workers_chosen(self, tmp_path, monkeypatch):
        """The worker count `rela check` passes on without --workers."""
        chosen = []
        real = rela.cli.check_all

        def recording(program, index, items, options, metadata):
            chosen.append(options.workers)
            return real(program, index, items,
                        rela.checker.CheckOptions(workers=1), metadata)

        monkeypatch.setattr(rela.cli, "check_all", recording)
        assert main(write_world(tmp_path, PASSING)) == 0
        return chosen

    def test_default_workers_are_the_usable_cpus(self, tmp_path,
                                                  monkeypatch):
        # pinned to one CPU of many: one worker, not one per CPU
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert self.workers_chosen(tmp_path, monkeypatch) == [1]

    def test_default_workers_without_affinity(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert self.workers_chosen(tmp_path, monkeypatch) == [3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert self.workers_chosen(tmp_path, monkeypatch) == [1]


def forty_lines():
    """Forty passing FEC lines, more than two of the pool's chunks."""
    return [fec_line(f"f{i:02d}", ("x1", "a1"), ("x1", "a1"))
            for i in range(40)]


class TestPoolAcrossChunks:
    """The pool hands the workers raw lines, 16 at a time, and the
    parent resolves ids in line order: every report must be the one
    judged at one worker, byte for byte."""

    def run_each(self, tmp_path, capsys, lines, extra=()):
        """(exit code, stdout, error lines) at 1 worker, the same at 2
        and 4 workers."""
        argv = write_world(tmp_path, lines) + list(extra)
        runs = []
        for workers in ("1", "2", "4"):
            code = main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            runs.append((code, captured.out,
                         [line for line in captured.err.splitlines()
                          if line.startswith("rela: error:")]))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        return runs[0]

    def errors(self, out):
        return [(e["fec_id"], e["message"]) for e in json.loads(out)["errors"]]

    def test_duplicate_after_a_valid_line_in_another_chunk(self, tmp_path,
                                                           capsys):
        lines = forty_lines()
        lines[30] = fec_line("f03", ("x1", "a1"), ("x1", "a1"), dst="nope")
        code, out, _ = self.run_each(tmp_path, capsys, lines)
        assert code == 2
        assert self.errors(out) == [("f03", "FEC f03: duplicate id")]
        assert json.loads(out)["totals"]["pass"] == 39

    def test_duplicate_after_a_failing_line_in_another_chunk(self, tmp_path,
                                                             capsys):
        # the failing line 4 claims its id, so the valid line 31 repeats it
        lines = forty_lines()
        lines[3] = fec_line("f30", ("x1", "a1"), ("x1", "a1"), dst="nope")
        code, out, _ = self.run_each(tmp_path, capsys, lines)
        assert code == 2
        assert self.errors(out) == [
            ("f30", "FEC f30: bad dstPrefix 'nope'"),
            ("f30", "FEC f30: duplicate id")]
        assert json.loads(out)["totals"]["pass"] == 38

    def test_a_real_id_equal_to_an_earlier_fallback_id(self, tmp_path,
                                                       capsys):
        # a fallback id names a line; it claims no id
        lines = forty_lines()
        lines[2] = "not json"
        lines[25] = fec_line("line 3", ("x1", "a1"), ("x1", "a2"))
        code, out, _ = self.run_each(tmp_path, capsys, lines)
        assert code == 1
        doc = json.loads(out)
        assert [e[0] for e in self.errors(out)] == ["line 3"]
        assert [cx["fec_id"] for cx in doc["counterexamples"]] == ["line 3"]

    def test_fallback_ids_keep_file_line_numbers(self, tmp_path, capsys):
        lines = []
        for i, line in enumerate(forty_lines()):
            if i % 5 == 0:
                lines += ["", "   "]
            lines.append(line)
        # each run of five FEC lines is led by two blank ones
        assert lines[9] == forty_lines()[5]
        assert lines[40] == forty_lines()[28]
        lines[9] = "[]"
        lines[40] = "{broken"
        code, out, _ = self.run_each(tmp_path, capsys, lines)
        assert code == 2
        errors = self.errors(out)
        assert [e[0] for e in errors] == ["line 10", "line 41"]
        assert errors[0][1] == \
            "FEC line 10: each line must be a JSON object"
        assert json.loads(out)["totals"]["pass"] == 38

    BAD_GRAPH = fec_line("bad", ("x1", "a1"), ("x1", "zz"))

    @pytest.mark.parametrize("first, last, message", [
        (BAD_GRAPH, "garbage",
         "rela: error: FEC bad: post graph node 'n1' has unknown "
         "location 'zz'"),
        ("garbage", BAD_GRAPH,
         "rela: error: line 6: invalid JSON: Expecting value: "
         "line 1 column 1 (char 0)"),
    ], ids=["graph-first", "garbage-first"])
    def test_strict_names_the_first_bad_line(self, tmp_path, capsys, first,
                                             last, message):
        lines = forty_lines()
        lines[5], lines[37] = first, last
        code, out, errors = self.run_each(tmp_path, capsys, lines,
                                          ["--strict"])
        assert (code, out, errors) == (2, "", [message])

    def test_the_parent_parses_no_line(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "pids"
        read_line = rela.checker.read_line

        def logged(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return read_line(*args)

        monkeypatch.setattr(rela.checker, "read_line", logged)
        argv = write_world(tmp_path, forty_lines())
        assert main(argv + ["--workers", "1"]) == 0
        assert log.read_text().split() == [str(os.getpid())] * 40
        log.unlink()
        assert main(argv + ["--workers", "2"]) == 0
        pids = log.read_text().split()
        assert len(pids) == 40
        assert str(os.getpid()) not in pids
