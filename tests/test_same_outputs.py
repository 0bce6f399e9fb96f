"""tools/same_outputs.py: the corpus comparison, and a run against HEAD."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"

_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _has_head() -> bool:
    if shutil.which("git") is None:
        return False
    return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True).returncode == 0


def _tree(root: pathlib.Path, files: dict) -> pathlib.Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_names_the_first_differing_key_line_and_field(tmp_path):
    same = {"golden/a.json": json.dumps({"x": [1, 2.0]})}
    base = _tree(tmp_path / "base", dict(same, **{
        "sync/b.json": json.dumps({"m": {"r": [3, 4], "s": 1}}),
        "run/t.csv": "round,y\r\n0,1.5\r\n1,2.5\r\n",
        "run/gone.json": "{}",
        "run/fmt.json": '{"a": 1}'}))
    head = _tree(tmp_path / "head", dict(same, **{
        "sync/b.json": json.dumps({"m": {"r": [3, 5], "s": 2}}),
        "run/t.csv": "round,y\r\n0,1.5\r\n1,2.4\r\n",
        "run/new.csv": "",
        "run/fmt.json": '{"a":1}'}))
    assert same_outputs.compare(base, head) == {
        "run/fmt.json": "same values, different bytes",
        "run/gone.json": "only in base",
        "run/new.csv": "only in head",
        "run/t.csv": "line 3, field 2: '2.5' vs '2.4'",
        "sync/b.json": "$.m.r[1]: 4 vs 5",
    }


def test_json_difference_sees_types_lengths_and_signed_zero():
    diff = same_outputs.first_json_difference
    assert diff({"a": [1, 2]}, {"a": [1, 2]}) is None
    assert diff({"a": 1}, {"a": 1.0}) == "$.a (int vs float)"
    assert diff([1], [1, 2]) == "$ (length 1 vs 2)"
    assert diff({"a": 0.0}, {"a": -0.0}) == "$.a: 0.0 vs -0.0"
    assert diff({"a": 1}, {"b": 1}) == "$.a (only in base)"


def test_each_expect_adds_its_patterns():
    # CI passes one --expect=<value> per commit trailer; a value that looks
    # like an option stays a pattern.
    args = same_outputs.parse_args(["--base", "HEAD", "--expect", "a", "b*",
                                    "--expect=golden/c.json", "--expect=--tiny"])
    assert args.expect == ["a", "b*", "golden/c.json", "--tiny"]
    assert not args.tiny


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a HEAD commit")
def test_head_against_itself_writes_the_same_bytes():
    proc = subprocess.run([sys.executable, str(TOOL), "--base", "HEAD", "--tiny"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert " 0 differ" in last and int(last.split()[0]) >= 15, last


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a HEAD commit")
def test_unknown_base_exits_2_naming_it():
    proc = subprocess.run([sys.executable, str(TOOL), "--base", "no-such-rev", "--tiny"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "git archive no-such-rev failed" in proc.stderr
