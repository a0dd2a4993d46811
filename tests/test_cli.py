import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dhcolor import (
    ALGORITHMS,
    CONDITION_IDS,
    PATTERN_IDS,
    Coloring,
    PatternReport,
    check_condition,
    contains_pattern,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_proper,
    normalize,
    paper_i,
    parse,
    parse_coloring,
    serialize,
)
from dhcolor import cli
from dhcolor.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_module(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m dhcolor ARGV`` in a fresh interpreter, dhcolor from src/,
    with the environment variables given as keywords."""
    env = {**os.environ, **env, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "dhcolor", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def i_file(tmp_path):
    path = tmp_path / "i.dhg"
    path.write_text(serialize(paper_i()))
    return str(path)


@pytest.fixture
def r4_file(tmp_path):
    path = tmp_path / "r4.dhg"
    path.write_text("e a b > c\ne c d > e\n")
    return str(path)


@pytest.fixture
def r4_free_file(tmp_path):
    path = tmp_path / "t.dhg"
    path.write_text("e a b > c\n")
    return str(path)


@pytest.fixture
def h4_file(tmp_path):
    path = tmp_path / "h4.dhg"
    path.write_text(serialize(gen_h2_tower(4)))
    return str(path)


class TestCheck:
    def test_condition_satisfied(self, i_file, capsys):
        assert main(["check", i_file, "--cond", "i0-free"]) == 0
        assert "satisfied" in capsys.readouterr().out

    def test_pattern_contained_exit_1(self, r4_file, capsys):
        assert main(["check", r4_file, "--pattern", "R4"]) == 1
        out = capsys.readouterr().out
        assert "contained" in out and "edges 0 1" in out

    def test_json(self, i_file, capsys):
        assert main(["check", i_file, "--pattern", "I0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"check": "I0", "avoided": True, "witnesses": []}

    def test_json_is_one_sorted_line_of_kernel_rows(self, h4_file, capsys):
        hg = gen_h2_tower(4)
        for cond in CONDITION_IDS:
            report = check_condition(hg, cond)
            assert main(["check", h4_file, "--cond", cond, "--json"]) == int(not report.avoided)
            out = capsys.readouterr().out
            assert out.endswith("\n") and out.count("\n") == 1, cond
            payload = json.loads(out)
            assert list(payload) == sorted(payload)
            assert all(list(w) == ["common", "edges"] for w in payload["witnesses"])
            rows = [(*w["edges"], tuple(map(tuple, w["common"]))) for w in payload["witnesses"]]
            assert rows == [(w.i, w.j, w.common) for w in report.witnesses], cond
        assert not check_condition(hg, "lovasz").avoided

    def test_non_two_one_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "big.dhg"
        path.write_text("e a b c > d\n")
        assert main(["check", str(path), "--pattern", "H2"]) == 2


# sha256 of the exact bytes printed by the plain encoders the CLI used before
# it encoded each distinct witness row once: json.dumps(payload,
# sort_keys=True) of the whole check payload, and one print per witness line.
H5_CHECK_DIGESTS = {  # (check, --json) -> stdout digest
    ("onehead-h1", False): "7ee82f21bf9836ee3f4d39eab2d5906341c03439a45c9e1fd2287714a1e3b3d3",
    ("onehead-h1", True): "fb1b5dbbdcddacc2df2a475a3ca23cb5580f87dc6b5cc6f28b09ccbda5d65066",
    ("i0-free", False): "76ab58efa8c82faab7acbdccb4688a71ac0622c29bb7e86279a77c70227dc3f6",
    ("i0-free", True): "952b9696c539aee0d14a5984e4b0cf84e1bef41bbb9bf7adb578d31fe8cad004",
    ("r4-free", False): "b5d1bf535806c7746b7d5e1fc95b4840528849acd12bf20401c5139a293f4508",
    ("r4-free", True): "fb5aeb698240bf87c931b317495b7a9981304d11ed6c9a31e37173d54c6bd89c",
    ("i0r4-free", False): "8cc4bed6dbd046cc7f8d4bc81c8fe936604627ef7d6ada4c67e6844fd5f4d7b5",
    ("i0r4-free", True): "65151e9d88b15cc0e854cbecc24455b843b9bf322912e2a8f61b5d6887e99e5d",
    ("lovasz", False): "d2e70abf41fc7098aa52fe1d4d01c08c647379fc503edb840e053a8b19ae4270",
    ("lovasz", True): "3ec8ba9e04a14a3b594ff1d43143d81db49d6aec60ea6aedf96de4e3c7875818",
    ("h2-two-intersect", False): "6ad03aec27d02d08bf97365e880b59735f86af392c47913b63297c8096a69004",
    ("h2-two-intersect", True): "77d6dd0d7851b9f9f7f566fe240953dd5c907a10b4c4c50a6167a02c68526ead",
    ("tails-only-2-intersect", False): "c64393e796569ffeac20153dad652b7cf818b2084e993e0cb454e5321ae57509",
    ("tails-only-2-intersect", True): "c478795cc1fc046ea7eaee57944b2ea5bba7ac6a0a1eb6e04a939288cb79c99b",
    ("H2", False): "8a469a72a1c5d87b0cb1cd6bf3d441af7db8dbe690dbd87fc2fe3f5cf710dca3",
    ("H2", True): "2df42e5acfcc5dc76a95f3f08bcf61158831b24f9a199dec5056620dafc0904f",
    ("I1", False): "eedbf7c367c06732f6b7907ae05c1bb4cfe84f62511a157119ca656a9c7ec5c2",
    ("I1", True): "c4f692099512124d2d7d4fd6a931d81e2c5bf6e5d4468300f123dbcdf419ddc2",
    ("R3", False): "217b1b4bc2fc175e47994d2490516438a706beb0eecab40db68a09d41ae83de8",
    ("R3", True): "5de2bcc22992cb61617021d012bdd06173e0b225248d037cc4135dfe5302fa3a",
    ("E", False): "d814d1dac27bfebdd162835614a2e2f6a5860d6b5b1a520002d54f96ab2fee53",
    ("E", True): "3cfb0cc33fad07ee54e59ee8402ae6d5ace879f1b96cb96d6e5ae36c8c2313b0",
    ("I0", False): "59d2a0f4e8cadb923247a59a30434dbaf269518f250d3d56fa1829efe82a5f16",
    ("I0", True): "878390bc8d4008d1de5cc2adc60049940c19c3fa13351995ecff84b34945e664",
    ("H1", False): "7474b1078710f5bbbb970789576a4a962bc0ad8840646153931b8352d803676b",
    ("H1", True): "2d1ce822dd7cfa8d8caf2cf935382ea7544816e30dfcae122db5643684b6303f",
    ("R4", False): "7909a34c6a11e5160755ebb4219c52054fcb09172eabe302e3b624aaed90b639",
    ("R4", True): "e85612a9361ea6af0ffc3986c2bffbff3c1bc46d431d6225dd8ffa1793c05c74",
}
H6_HT3_STDERR_DIGEST = "e7647c70494a3a28199f0109989b3416d2501f3ca88736babab082205bda00c5"
# `check h2-tower-6 --cond r4-free --json`, recorded before the printers took
# edge numbers from one table per report: 27,678 witnesses, ids up to 1,694.
H6_R4_FREE_JSON_DIGEST = "759aaf7b6b3c155c499af3026d9cc9f5325cdea6b88174dbbc689248d6f30326"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def no_records(monkeypatch):
    """Reading ``PatternReport.witnesses`` raises, so the run must print
    its witnesses from the report's columns."""
    def refuse(report):
        raise AssertionError("PatternReport.witnesses read")

    monkeypatch.setattr(PatternReport, "witnesses", property(refuse))


@pytest.fixture(scope="module")
def tower_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("towers")
    paths = {}
    for level in (5, 6):
        path = folder / f"h{level}.dhg"
        path.write_text(serialize(gen_h2_tower(level)))
        paths[level] = str(path)
    return paths


class TestGoldenOutput:
    """Witness output is byte-identical to the plain encoders' output."""

    def test_check_stdout_on_h2_tower_5(self, tower_files, capsys):
        self._check_stdout_on_h2_tower_5(tower_files[5], capsys)

    def test_check_stdout_on_h2_tower_5_without_records(self, tower_files, capsys, no_records):
        self._check_stdout_on_h2_tower_5(tower_files[5], capsys)

    def test_check_stdout_on_h2_tower_5_without_edge_records(self, tower_files, capsys,
                                                             no_edge_records):
        self._check_stdout_on_h2_tower_5(tower_files[5], capsys)

    def test_ht3_rejection_stderr_on_h2_tower_6(self, tower_files, capsys):
        self._ht3_rejection_stderr_on_h2_tower_6(tower_files[6], capsys)

    def test_ht3_rejection_stderr_on_h2_tower_6_without_records(self, tower_files, capsys,
                                                                no_records):
        self._ht3_rejection_stderr_on_h2_tower_6(tower_files[6], capsys)

    def test_ht3_rejection_stderr_on_h2_tower_6_without_edge_records(self, tower_files, capsys,
                                                                     no_edge_records):
        self._ht3_rejection_stderr_on_h2_tower_6(tower_files[6], capsys)

    def test_r4_free_json_on_h2_tower_6(self, tower_files, capsys):
        assert main(["check", tower_files[6], "--cond", "r4-free", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _sha256(captured.out) == H6_R4_FREE_JSON_DIGEST

    @staticmethod
    def _check_stdout_on_h2_tower_5(path, capsys):
        for check in CONDITION_IDS + PATTERN_IDS:
            flag = "--pattern" if check in PATTERN_IDS else "--cond"
            for as_json in (False, True):
                main(["check", path, flag, check] + ["--json"] * as_json)
                captured = capsys.readouterr()
                assert captured.err == ""
                assert _sha256(captured.out) == H5_CHECK_DIGESTS[check, as_json], (check, as_json)

    @staticmethod
    def _ht3_rejection_stderr_on_h2_tower_6(path, capsys):
        assert main(["color", path, "--algo", "ht3", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") > 27_000
        assert _sha256(captured.err) == H6_HT3_STDERR_DIGEST

    @pytest.mark.parametrize("flag, check", [
        ("--cond", "lovasz"), ("--cond", "i0-free"), ("--cond", "h2-two-intersect"),
        ("--pattern", "R4"), ("--pattern", "I0"), ("--pattern", "E"),
    ])
    def test_json_escapes_vertex_names_like_json_dumps(self, tmp_path, capsys, flag, check):
        # Names that json must escape: a quote, a backslash, a non-ASCII
        # letter and a control character.
        text = '\n'.join([
            'e "q \\b > \u00e9',
            'e \u00e9 \x01 > z',
            'e "q \x01 > \u00e9',
            'e z w > \\b',
            'e w y > \u00e9',
            'e "q \\b > y',
        ]) + '\n'
        path = tmp_path / "names.dhg"
        path.write_text(text, encoding="utf-8")
        hg = parse(text)
        assert {'"q', "\\b", "\u00e9", "\x01"} <= set(hg.vertices)
        report = (contains_pattern if flag == "--pattern" else check_condition)(hg, check)
        payload = {
            "check": report.pattern,
            "avoided": report.avoided,
            "witnesses": [{"edges": [w.i, w.j], "common": w.common} for w in report.witnesses],
        }
        assert main(["check", str(path), flag, check, "--json"]) == int(not report.avoided)
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def plain_check_json(report):
    """The check payload as one json.dumps call, as the CLI printed it first."""
    return json.dumps({
        "check": report.pattern,
        "avoided": report.avoided,
        "witnesses": [{"edges": [i, j], "common": common} for i, j, common in zip(*report.columns)],
    }, sort_keys=True)


def plain_witness_lines(report):
    """One f-string per witness, as the CLI printed them first."""
    return [f"edges {i} {j}  common [{', '.join(f'{v}:{r1}/{r2}' for v, r1, r2 in common)}]"
            for i, j, common in zip(*report.columns)]


class TestPrinters:
    """The two witness printers match the plain encoders on every report."""

    @pytest.fixture(scope="class")
    def tower_reports(self):
        reports = [check_condition(gen_h2_tower(6), "r4-free")]
        h5 = gen_h2_tower(5)
        reports += [check_condition(h5, cond) for cond in ("lovasz", "i0-free")]
        h4 = gen_h2_tower(4)
        reports += [contains_pattern(h4, pattern) for pattern in PATTERN_IDS]
        return reports

    def test_ids_cross_each_power_of_ten(self, tower_reports):
        # h2-tower(6) r4-free holds ids of one to four digits, on both sides
        # of 9/10, 99/100 and 999/1000
        first, second, _ = tower_reports[0].columns
        ids = set(first) | set(second)
        assert {9, 10, 99, 100, 999} <= ids and max(ids) == 1694

    def test_tower_reports(self, tower_reports):
        for report in tower_reports:
            assert cli._check_json(report) == plain_check_json(report), report.pattern
            assert cli._witness_lines(report) == plain_witness_lines(report), report.pattern

    def test_constructor_report_with_i_above_j_and_a_repeated_pair(self):
        row = (("a", "head", "tail"), ("b", "tail", "tail"))
        other = (("c", "tail", "head"),)
        report = PatternReport("R4", False, [(1000, 3, row), (7, 12, other), (1000, 3, row),
                                             (9, 9, other), (0, 99, row), (100, 10, other)])
        assert cli._check_json(report) == plain_check_json(report)
        assert cli._witness_lines(report) == plain_witness_lines(report)
        assert cli._witness_lines(report)[0] == "edges 1000 3  common [a:head/tail, b:tail/tail]"

    def test_empty_report(self):
        for report in (PatternReport("H2", True, ()), contains_pattern(paper_i(), "H2")):
            assert report.avoided
            assert cli._check_json(report) == plain_check_json(report)
            assert cli._witness_lines(report) == plain_witness_lines(report) == []


# Runs on parsed files that must build no DirectedEdge.  A color run is
# checked, on a gen_random draw (n=24, m=72) under the algorithm's condition
# with this seed, plus a second edge on the vertex set of the draw's first
# edge, which normalize drops.
COLOR_DRAWS = {"one-head": ("onehead-h1", 1), "ht3": ("r4-free", 2),
               "i0r4-2": ("i0r4-free", 3), "i0-4": ("i0-free", 4)}
PARSED_RUNS = ["chromatic-paper-i", "chromatic-h2-tower-4", *(f"color-{a}" for a in COLOR_DRAWS)]


@pytest.fixture(scope="module")
def parsed_runs(tmp_path_factory):
    """Each run's command line and what main returns and prints for it,
    recorded with edge records allowed."""
    folder = tmp_path_factory.mktemp("parsed")
    runs = {}
    for name in PARSED_RUNS:
        command, which = name.split("-", 1)
        path = folder / f"{which}.dhg"
        if command == "chromatic":
            path.write_text(serialize(paper_i() if which == "paper-i" else gen_h2_tower(4)))
            argv = ["chromatic", str(path), "--json"]
        else:
            cond, seed = COLOR_DRAWS[which]
            hg = gen_random(24, 72, cond=cond, seed=seed)
            first = sorted(hg.edges[0].vertices)
            path.write_text(serialize(hg) + f"e {first[1]} {first[2]} > {first[0]}\n")
            argv = ["color", str(path), "--algo", which, "--json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs[name] = argv, (code, out.getvalue(), err.getvalue())
    return runs


@pytest.mark.parametrize("name", PARSED_RUNS)
def test_run_on_a_parsed_file_builds_no_edge_records(name, parsed_runs, capsys, no_edge_records):
    argv, recorded = parsed_runs[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == recorded and code == 0


# dhcolor gen runs that must build no DirectedEdge: the generators hand the
# index position rows, serialize writes from them and the summary counts them.
GEN_RUNS = {
    "random": ["--n", "60", "--m", "120", "--cond", "r4-free", "--seed", "5"],
    "h2-tower": ["--k", "4"],
    "perm-tower": ["--k", "3"],
    "paper-i": [],
    "paper-r": [],
}


@pytest.fixture(scope="module")
def gen_runs(tmp_path_factory):
    """Each gen run's command lines, to stdout and to a file with --json, and
    what main returns, prints and writes for them, recorded with edge
    records allowed."""
    folder = tmp_path_factory.mktemp("gen")
    runs = {}
    for kind, extra in GEN_RUNS.items():
        path = folder / f"{kind}.dhg"
        argvs = (["gen", "--kind", kind, *extra],
                 ["gen", "--kind", kind, *extra, "-o", str(path), "--json"])
        outputs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outputs.append((main(argv), out.getvalue(), err.getvalue()))
        runs[kind] = argvs, outputs, path, path.read_text()
    return runs


@pytest.mark.parametrize("kind", GEN_RUNS)
def test_gen_builds_no_edge_records(kind, gen_runs, capsys, no_edge_records):
    argvs, recorded, path, text = gen_runs[kind]
    path.unlink()
    for argv, expected in zip(argvs, recorded):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected and code == 0
    assert path.read_text() == text and recorded[0][1].startswith(text)


# dhcolor goodcheck runs on parsed files that must build no DirectedEdge: the
# inducer and the verifier read the index's rows.  Each is (file text, exit
# code); the failing ones stop at the R3 check, at a shadow-edge conflict,
# at an off-shape edge and at the E check.
GOODCHECK_RUNS = {
    "perm-tower-3": (serialize(gen_perm_tower(3)), 0),
    "random-9": (serialize(gen_random(n=9, m=12, cond="tails-only-2-intersect", seed=4)), 0),
    "r3": ("e a b > c\ne b c > d\n", 1),
    "conflict": ("e a b > c\ne a c > b\n", 1),
    "off-shape": ("e a b c > d\n", 1),
    "e": ("e a b > c\ne d c > b\n", 1),
}


@pytest.fixture(scope="module")
def goodcheck_runs(tmp_path_factory):
    """Each goodcheck run's command lines, plain and with --json, and what
    main returns and prints for them, recorded with edge records allowed."""
    folder = tmp_path_factory.mktemp("goodcheck")
    runs = {}
    for name, (text, _) in GOODCHECK_RUNS.items():
        path = folder / f"{name}.dhg"
        path.write_text(text)
        argvs = (["goodcheck", str(path)], ["goodcheck", str(path), "--json"])
        outputs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outputs.append((main(argv), out.getvalue(), err.getvalue()))
        runs[name] = argvs, outputs
    return runs


@pytest.mark.parametrize("name", GOODCHECK_RUNS)
def test_goodcheck_builds_no_edge_records(name, goodcheck_runs, capsys, no_edge_records):
    argvs, recorded = goodcheck_runs[name]
    for argv, expected in zip(argvs, recorded):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert code == GOODCHECK_RUNS[name][1]


class TestColor:
    def test_writes_coloring_and_trace(self, i_file, tmp_path, capsys):
        out = tmp_path / "i.col"
        trace = tmp_path / "i.trace"
        code = main(["color", i_file, "--algo", "i0-4", "-o", str(out), "--trace", str(trace)])
        assert code == 0
        coloring = parse_coloring(out.read_text(), k=4)
        assert is_proper(paper_i(), coloring)
        lines = trace.read_text().splitlines()
        assert len(lines) >= paper_i().n
        assert all(len(line.split()) == 5 for line in lines)

    def test_precondition_failure_exit_1(self, r4_file, capsys):
        assert main(["color", r4_file, "--algo", "ht3"]) == 1
        assert "precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", ([], ["--json"]))
    def test_precondition_failure_lists_every_witness(self, h4_file, extra, capsys):
        report = check_condition(normalize(gen_h2_tower(4)), "r4-free")
        assert main(["color", h4_file, "--algo", "ht3", *extra]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines[0].startswith("precondition violated: ")
        assert lines[1:] == [
            f"edges {w.i} {w.j}  common ["
            + ", ".join(f"{v}:{r1}/{r2}" for v, r1, r2 in w.common) + "]"
            for w in report.witnesses
        ]
        assert len(lines) > 1

    def test_unchecked_runs_anyway(self, r4_file, capsys):
        code = main(["color", r4_file, "--algo", "ht3", "--unchecked"])
        assert code in (0, 1)
        assert "proper=" in capsys.readouterr().out

    @pytest.mark.parametrize("algo, text", [
        ("i0-4", "e a b c > d\n"),
        ("i0-4", "e a b >\n"),
        ("i0r4-2", "e a b >\n"),
    ])
    def test_unchecked_off_shape_input_reports_violations(self, tmp_path, capsys, algo, text):
        path = tmp_path / "x.dhg"
        path.write_text(text)
        assert main(["color", str(path), "--algo", algo, "--unchecked"]) == 1
        captured = capsys.readouterr()
        assert "\nviolation: " in captured.out and captured.err == ""

    def test_stdout_coloring(self, i_file, capsys):
        assert main(["color", i_file, "--algo", "i0-4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("v1 ")

    def test_json_payload(self, i_file, capsys):
        assert main(["color", i_file, "--algo", "i0-4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proper"] is True
        assert payload["k"] == 4
        assert set(payload["assignment"]) == {"v1", "v2", "v3", "v4", "v5"}


class TestChromatic:
    def test_prints_chi(self, i_file, capsys):
        assert main(["chromatic", i_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_witness_file(self, i_file, tmp_path):
        out = tmp_path / "w.col"
        assert main(["chromatic", i_file, "--witness", str(out)]) == 0
        coloring = parse_coloring(out.read_text(), k=3)
        assert is_proper(paper_i(), coloring)

    def test_exceeded(self, i_file, capsys):
        assert main(["chromatic", i_file, "--max-k", "2"]) == 1
        assert capsys.readouterr().out.strip() == ">2"

    def test_deep_search_json(self, tmp_path, capsys):
        # 5,000 vertices on a chain of 2->1 edges: one search level each.
        text = "".join(f"e v{i} v{i + 1} > v{i + 2}\n" for i in range(0, 4998, 2)) + "v v4999\n"
        path = tmp_path / "chain.dhg"
        path.write_text(text)
        assert main(["chromatic", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hg = parse(text)
        assert payload["chi"] == 2 and len(payload["witness"]) == 5000
        assert is_proper(hg, Coloring(payload["witness"], 2))

    def test_long_odd_cycle_json(self, tmp_path, capsys):
        # 5,001 two-vertex edges around a cycle: chi = 3, found in well under 1 s.
        text = "".join(f"e v{i} > v{(i + 1) % 5001}\n" for i in range(5001))
        path = tmp_path / "cycle.dhg"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["chromatic", str(path), "--json"]) == 0
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert payload["chi"] == 3
        assert is_proper(parse(text), Coloring(payload["witness"], 3))
        assert elapsed < 1.0, elapsed


class TestGen:
    def test_kinds_roundtrip(self, tmp_path):
        for kind, extra in (
            ("paper-i", []),
            ("paper-r", []),
            ("h2-tower", ["--k", "3"]),
            ("perm-tower", ["--k", "3"]),
            ("random", ["--n", "6", "--m", "5", "--cond", "i0-free", "--seed", "7"]),
        ):
            out = tmp_path / f"{kind}.dhg"
            assert main(["gen", "--kind", kind, *extra, "-o", str(out)]) == 0
            parse(out.read_text())

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--kind", "paper-r"]) == 0
        out = capsys.readouterr().out
        assert "e v2 v3 > v1" in out

    def test_tower_guard_is_input_error(self, capsys):
        assert main(["gen", "--kind", "perm-tower", "--k", "5"]) == 2


class TestBoundAndGoodcheck:
    def test_bound(self, capsys):
        assert main(["bound", "--n", "12"]) == 0
        assert capsys.readouterr().out.strip() == "116"

    def test_goodcheck_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.dhg"
        path.write_text("e a b > c\n")
        assert main(["goodcheck", str(path)]) == 0
        assert "|E|=1" in capsys.readouterr().out

    def test_goodcheck_rejects_r3(self, tmp_path, capsys):
        path = tmp_path / "r3.dhg"
        path.write_text("e a b > c\ne b c > d\n")
        assert main(["goodcheck", str(path)]) == 1
        assert "no good coloring" in capsys.readouterr().out

    # `goodcheck --json` output recorded before the inducer and verifier were
    # rewritten.  A conflict names its shadow edge as a set with its names
    # sorted.
    GOODCHECK_JSON = {
        "e a b > c\ne b c > d\n": [
            '{"error": "hypergraph contains R3 (edges 0,1)", "valid": false}'],
        "e a b > c\ne d c > b\n": [
            '{"error": "hypergraph contains E (edges 0,1)", "valid": false}'],
        "e a b > c\ne a c > b\n": [
            '{"error": "shadow edge {\'a\', \'b\'} already blue, conflicting assignment",'
            ' "valid": false}'],
        "e a b c > d\n": ['{"error": "pattern containment is defined for 2->1 hypergraphs only",'
                          ' "valid": false}'],
        "e a b > c\ne a b > d\ne c d > e\n": [
            '{"edges": 3, "f": 7, "n": 5, "valid": true, "within_bound": true}'],
        # Repeated edges are one hyperedge, so they count once against f(n).
        "e a b > c\ne a b > c\ne a b > c\n": [
            '{"edges": 1, "f": 2, "n": 3, "valid": true, "within_bound": true}'],
    }

    @pytest.mark.parametrize("text", GOODCHECK_JSON)
    def test_goodcheck_json_pinned(self, text, tmp_path, capsys):
        path = tmp_path / "in.dhg"
        path.write_text(text)
        code = main(["goodcheck", str(path), "--json"])
        assert capsys.readouterr().out.rstrip("\n") in self.GOODCHECK_JSON[text]
        assert code == (0 if "true" in self.GOODCHECK_JSON[text][0] else 1)


    def test_goodcheck_output_does_not_depend_on_the_string_hash(self, tmp_path):
        # A conflict names its shadow edge; the text must not follow the
        # iteration order of a set of names, which varies with the hash seed.
        path = tmp_path / "in.dhg"
        path.write_text("e a b > c\ne a c > b\n")
        outputs = set()
        for seed in range(6):
            done = run_module("goodcheck", str(path), "--json", PYTHONHASHSEED=str(seed))
            assert done.returncode == 1, done.stderr
            outputs.add(done.stdout)
        assert outputs == {'{"error": "shadow edge {\'a\', \'b\'} already blue, '
                           'conflicting assignment", "valid": false}\n'}


class TestFuzzCommand:
    def test_ok_run(self, capsys):
        assert main(["fuzz", "--algo", "i0r4-2", "--trials", "25"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["fuzz", "--algo", "one-head", "--trials", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 10 and payload["failures"] == 0

    def test_zero_trials(self, capsys):
        assert main(["fuzz", "--algo", "ht3", "--trials", "0"]) == 0

    def test_empty_n_range_exit_2(self, capsys):
        assert main(["fuzz", "--algo", "ht3", "--n-min", "9", "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty n_range (9, 3): n_min exceeds n_max\n"

    def test_n_min_below_3_exit_2(self, capsys):
        assert main(["fuzz", "--algo", "ht3", "--n-min", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: n_range (2, 9) allows fewer than 3 vertices, "
                                "which gen_random cannot draw\n")

    def test_tail_range_some_n_cannot_draw_exit_2(self, capsys):
        assert main(["fuzz", "--algo", "ht3", "--tail-min", "5", "--tail-max", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tail_range (5, 5) is unusable for some n in n_range (3, 9); "
                                "gen_random needs 1 <= tail_min <= min(tail_max, n - 1)\n")

    def test_tail_range_outside_the_shape_exit_2(self, capsys):
        # One-head edges need two tails: the harness refuses to draw fewer
        # rather than report its own out-of-shape instances as failures.
        assert main(["fuzz", "--algo", "one-head", "--tail-min", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: one-head requires tails of at least 2; "
                                "tail_range (1, 2) allows fewer\n")


class TestErrors:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.dhg"
        path.write_text("e a > a\n")
        assert main(["check", str(path), "--cond", "lovasz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["chromatic", "/nonexistent/x.dhg"]) == 2

    @pytest.mark.parametrize("argv", (
        ["color", "{f}", "--algo", "ht3", "-o", "{f}/x"],
        ["chromatic", "{f}", "--witness", "{f}/x"],
    ))
    def test_unwritable_output_exit_2(self, r4_free_file, argv, capsys):
        # Writing under a regular file raises NotADirectoryError.
        assert main([a.format(f=r4_free_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Not a directory" in captured.err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "somefile"])  # neither --pattern nor --cond
        assert exc.value.code == 2


class TestAlgorithmChoices:
    @pytest.mark.parametrize("command", ["color", "fuzz"])
    def test_algo_choices_come_from_the_registry(self, command):
        subparsers = cli._build_parser()._subparsers._group_actions[0]
        algo = subparsers.choices[command]._option_string_actions["--algo"]
        assert tuple(algo.choices) == tuple(ALGORITHMS)

    def test_dispatch_table_is_the_registry_runners(self):
        assert cli._ALGOS is cli.RUNNERS
        assert cli._ALGOS == {name: spec.run for name, spec in ALGORITHMS.items()}


class TestRepeatedCalls:
    """One argument parser serves every ``main`` call in a process, so a call
    must print what it prints in a fresh interpreter whatever ran before."""

    def test_no_state_leaks_between_calls(self, i_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        runs = [
            ["check", i_file, "--cond", "i0-free", "--json"],
            ["check", i_file, "--cond", "i0-free"],
            ["color", i_file, "--algo", "i0-4", "-o", out],
            ["color", i_file, "--algo", "i0-4"],
            ["chromatic", i_file, "--witness", out, "--json"],
            ["chromatic", i_file],
            ["gen", "--kind", "paper-r", "-o", out],
            ["gen", "--kind", "paper-r"],
            ["fuzz", "--algo", "ht3", "--trials", "3", "--random-ties"],
            ["fuzz", "--algo", "one-head", "--trials", "3"],
        ]
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = run_module(*argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_then_valid_call(self, i_file, capsys):
        with pytest.raises(SystemExit):
            main(["check", i_file])
        capsys.readouterr()
        assert main(["check", i_file, "--pattern", "I0"]) == 0
        assert capsys.readouterr().out == "I0: avoided\n"


class TestModuleEntryPoint:
    def test_bound(self):
        result = run_module("bound", "--n", "12")
        assert (result.returncode, result.stdout, result.stderr) == (0, "116\n", "")

    def test_missing_file_exit_2(self, tmp_path):
        result = run_module("check", str(tmp_path / "missing.dhg"), "--cond", "lovasz")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ")
