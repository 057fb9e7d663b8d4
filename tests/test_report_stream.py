"""Reports are written as they are encoded.  Their bytes are those of the
whole-string form, ``json.dumps(envelope, indent=2) + "\\n"`` or the text
lines joined by newlines; a report that fails half-way leaves no --out
file; and the input hashes are hashlib's sha256."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402

from palg import cli  # noqa: E402
from palg.corpus import (  # noqa: E402
    heisenberg_zero_dot,
    serialize_document,
    serialize_manifest,
    two_dim_nonabelian,
    xyz_algebra,
    zero_algebra,
)
from palg.fields import FieldSpec  # noqa: E402
from palg.theorems import TheoremResult  # noqa: E402

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)


def _write_corpus(directory: Path, algebras) -> None:
    directory.mkdir()
    members = []
    for alg in algebras:
        members.append(f"{alg.name}.palg")
        (directory / members[-1]).write_text(serialize_document(alg), encoding="utf-8")
    (directory / "manifest.json").write_text(serialize_manifest(members), encoding="utf-8")


@pytest.fixture()
def workdir(tmp_path):
    heis = tmp_path / "heis.palg"
    heis.write_text(serialize_document(heisenberg_zero_dot(GF2)), encoding="utf-8")
    bad = tmp_path / "bad.palg"
    bad.write_text(serialize_document(xyz_algebra(GF5, allow_invalid=True)), encoding="utf-8")
    _write_corpus(tmp_path / "corpus",
                  [zero_algebra(GF2, 2), heisenberg_zero_dot(GF2), two_dim_nonabelian(GF3),
                   two_dim_nonabelian(GF2)])
    _write_corpus(tmp_path / "invalid", [xyz_algebra(GF5, allow_invalid=True)])
    return tmp_path


COMMANDS = {
    "validate": lambda d: ["validate", str(d / "heis.palg"), str(d / "bad.palg")],
    "analyze": lambda d: ["analyze", str(d / "heis.palg")],
    "series": lambda d: ["series", str(d / "heis.palg"), "--kind", "lower-central"],
    "check": lambda d: ["check", str(d / "corpus" / "manifest.json")],
    # failed rows, whose text carries a witness line
    "check-fail": lambda d: ["check", str(d / "invalid" / "manifest.json"), "--allow-invalid",
                             "--budget-q", "5", "--theorem", "Def-1.1"],
    "enumerate": lambda d: ["enumerate", "1", "3", str(d / "enumerated")],
}


@pytest.fixture()
def emitted(monkeypatch):
    """Record each report's envelope and the text lines drawn from it."""
    calls = []
    emit = cli._emit

    def recording(args, envelope, text_lines):
        drawn = []

        def lines():
            for line in text_lines:
                drawn.append(line)
                yield line

        calls.append((envelope, drawn))
        emit(args, envelope, lines())

    monkeypatch.setattr(cli, "_emit", recording)
    return calls


def _whole_string(fmt: str, envelope: dict, lines: list) -> str:
    """The report as it was written before streaming: one string."""
    if fmt == "text":
        return "\n".join(lines) + "\n"
    result = envelope["result"]
    if envelope["command"] == "check":
        result = dict(result, results=[row.to_json() for row in result["results"]])
    return json.dumps(dict(envelope, result=result), indent=2) + "\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_streamed_report_has_the_bytes_of_the_whole_string(capsys, workdir, emitted,
                                                               command, fmt, to_file):
    out = workdir / "report"
    argv = COMMANDS[command](workdir) + ["--format", fmt]
    if to_file:
        argv += ["--out", str(out)]
    cli.main(argv)
    written = out.read_bytes().decode("utf-8") if to_file else capsys.readouterr().out
    [(envelope, drawn)] = emitted
    # --format json draws no text line at all
    assert (drawn == []) == (fmt == "json")
    assert written == _whole_string(fmt, envelope, drawn)
    if fmt == "json":
        assert json.loads(written)["command"] == envelope["command"]


def test_a_report_that_fails_while_written_leaves_no_out_file(monkeypatch, workdir):
    out = workdir / "report.json"
    out.write_text("an older report\n", encoding="utf-8")
    encoded = []
    to_json = TheoremResult.to_json

    def failing(row):
        if len(encoded) == 3:
            raise RuntimeError("cannot encode this row")
        encoded.append(row)
        return to_json(row)

    monkeypatch.setattr(TheoremResult, "to_json", failing)
    with pytest.raises(RuntimeError, match="cannot encode"):
        cli.main(COMMANDS["check"](workdir) + ["--format", "json", "--out", str(out)])
    assert len(encoded) == 3 and not out.exists()


def test_input_hashes_are_sha256_on_every_suite_input(tmp_path):
    inputs.generate("suite", 1, tmp_path)
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == 176  # 175 documents and the manifest
    for path in paths:
        assert cli._sha256(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()
