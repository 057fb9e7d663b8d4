import json

import pytest

from palg.algebra import PoissonAlgebra, tensors_from_maps
from palg.cli import main
from palg.corpus import (
    heisenberg_zero_dot,
    serialize_document,
    serialize_manifest,
    two_dim_nonabelian,
    xyz_algebra,
    zero_algebra,
)
from palg.fields import FieldSpec

GF2 = FieldSpec.prime(2)
GF5 = FieldSpec.prime(5)


@pytest.fixture()
def heis_file(tmp_path):
    path = tmp_path / "heis.palg"
    path.write_text(serialize_document(heisenberg_zero_dot(GF2)), encoding="utf-8")
    return path


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.palg"
    path.write_text(serialize_document(xyz_algebra(GF5, allow_invalid=True)),
                    encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_file(capsys, heis_file):
    code, out, _ = run_cli(capsys, "validate", str(heis_file))
    assert code == 0 and "VALID" in out


def test_validate_violating_file(capsys, bad_file):
    code, out, _ = run_cli(capsys, "validate", str(bad_file))
    assert code == 1
    assert "INVALID leibniz" in out and "(0, 1, 0)" in out


def test_validate_missing_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "nope.palg"))
    assert code == 2 and "ERROR" in out


def test_validate_mixed_files(capsys, heis_file, bad_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", str(heis_file), str(bad_file))
    assert code == 1


def test_validate_directory_is_an_io_error_row(capsys, heis_file, tmp_path):
    # a directory among the paths used to abort the whole report while
    # the envelope hashed it
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, _ = run_cli(capsys, "validate", str(folder), str(heis_file), "--format", "json")
    assert code == 2
    envelope = json.loads(out)
    assert [r["status"] for r in envelope["result"]] == ["io-error", "valid"]
    assert envelope["result"][0]["path"] == str(folder)
    assert [i["path"] for i in envelope["inputs"]] == [str(heis_file)]
    code, out, _ = run_cli(capsys, "validate", str(folder), str(heis_file))
    assert code == 2
    assert out.splitlines() == [f"{folder}: ERROR " + envelope["result"][0]["message"],
                                f"{heis_file}: VALID"]


def test_analyze_heisenberg(capsys, heis_file):
    code, out, _ = run_cli(capsys, "analyze", str(heis_file))
    assert code == 0
    assert "classification       nilpotent" in out
    assert "frattini_ideal       span(z)" in out


def test_analyze_json_envelope(capsys, heis_file):
    code, out, _ = run_cli(capsys, "analyze", str(heis_file), "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "analyze"
    assert envelope["inputs"][0]["sha256"]
    assert envelope["result"]["classification"] == "nilpotent"
    assert envelope["result"]["phi_free"] is False


def test_analyze_respects_budget(capsys, heis_file):
    code, _, err = run_cli(capsys, "analyze", str(heis_file), "--budget-dim", "2")
    assert code == 3 and "max_dim" in err


def test_analyze_rejects_invalid_without_flag(capsys, bad_file):
    code, _, err = run_cli(capsys, "analyze", str(bad_file))
    assert code == 1 and "leibniz" in err


def test_analyze_allow_invalid(capsys, bad_file):
    code, out, _ = run_cli(capsys, "analyze", str(bad_file),
                           "--allow-invalid", "--budget-q", "5")
    assert code == 0
    assert "radical              span(x, y, z)" in out


# Commutative dots with a zero bracket that are not associative: the lower
# central cross-check fails on the first, the idempotent splitting the
# structure report verifies on the second.
INCONSISTENT = [
    (FieldSpec.prime(2), {(1, 1, 2): 1, (2, 2, 0): 1}, ("series", "analyze"),
     "lower central series inconsistent at step 4"),
    (FieldSpec.prime(3), {(0, 1, 1): 2, (1, 1, 1): 2, (1, 2, 1): 1, (2, 2, 1): 2},
     ("analyze",), "idempotent line plus nilradical is not a direct sum"),
]


@pytest.mark.parametrize("field, dot, commands, message", INCONSISTENT,
                         ids=["lower-central", "idempotent-splitting"])
def test_allow_invalid_inconsistency_is_a_mathematical_failure(
        capsys, tmp_path, field, dot, commands, message):
    t = tensors_from_maps(field, 3, dot, {})
    path = tmp_path / "bad.palg"
    path.write_text(serialize_document(PoissonAlgebra(field, 3, t.dot, t.bracket, name="bad")),
                    encoding="utf-8")
    for command in commands:
        extra = ("--kind", "lower-central") if command == "series" else ()
        code, out, err = run_cli(capsys, command, str(path), *extra, "--allow-invalid")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err


def test_series_command(capsys, heis_file):
    code, out, _ = run_cli(capsys, "series", str(heis_file), "--kind", "derived")
    assert code == 0
    assert "terminates at zero, step 2" in out
    code, out, _ = run_cli(capsys, "series", str(heis_file), "--kind", "assoc-lower",
                           "--format", "json")
    payload = json.loads(out)["result"]
    assert payload["terminates"] and payload["step"] == 1


def _write_corpus(tmp_path, algebras):
    names = []
    for alg in algebras:
        filename = f"{alg.name}.palg"
        (tmp_path / filename).write_text(serialize_document(alg), encoding="utf-8")
        names.append(filename)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(serialize_manifest(names), encoding="utf-8")
    return manifest


def test_check_command_all_pass(capsys, tmp_path):
    manifest = _write_corpus(tmp_path, [zero_algebra(GF2, 2), heisenberg_zero_dot(GF2)])
    code, out, _ = run_cli(capsys, "check", str(manifest))
    assert code == 0
    assert "0 fail" in out


def test_check_command_filter_and_exit_code(capsys, tmp_path, bad_file):
    manifest = _write_corpus(tmp_path, [xyz_algebra(GF5, allow_invalid=True)])
    code, out, _ = run_cli(capsys, "check", str(manifest), "--allow-invalid",
                           "--budget-q", "5", "--theorem", "Def-1.1")
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_check_rejects_invalid_corpus_without_flag(capsys, tmp_path):
    manifest = _write_corpus(tmp_path, [xyz_algebra(GF5, allow_invalid=True)])
    code, _, err = run_cli(capsys, "check", str(manifest))
    assert code == 1 and "leibniz" in err


# Metadata is outside input: a row of the wrong length, and a digit that
# str.isdigit accepts but int does not, used to end both commands with a
# traceback (ValueError: ragged matrix; invalid literal for int()); a JSON
# boolean used to pass as the scalar 0 or 1.
MALFORMED_RADICALS = {"ragged": [["1"]], "superscript": [["\u00b2", "0"]],
                      "boolean": [[True, False]]}


def _malformed_q_algebra(label):
    return two_dim_nonabelian(FieldSpec.rationals()).with_name(label).with_meta(
        {"radical": MALFORMED_RADICALS[label], "nilradical": [["1", "0"]]})


@pytest.mark.parametrize("label", sorted(MALFORMED_RADICALS))
def test_analyze_malformed_metadata_is_a_usage_error(capsys, tmp_path, label):
    path = tmp_path / f"{label}.palg"
    path.write_text(serialize_document(_malformed_q_algebra(label)), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: metadata 'radical': ")


@pytest.mark.parametrize("label", sorted(MALFORMED_RADICALS))
def test_check_reports_malformed_metadata_as_not_applicable(capsys, tmp_path, label):
    manifest = _write_corpus(tmp_path, [_malformed_q_algebra(label)])
    code, out, _ = run_cli(capsys, "check", str(manifest), "--format", "json")
    assert code == 0
    rows = {r["theorem"]: r for r in json.loads(out)["result"]["results"]}
    for theorem in ("Thm-2.6", "Lemma-2.9", "Cor-2.7"):
        assert rows[theorem]["status"] == "not-applicable"
        assert rows[theorem]["detail"].startswith("metadata 'radical': ")


def test_check_unknown_theorem_is_a_usage_error(capsys, tmp_path):
    # it used to print "summary: 0 pass ..." and exit 0
    manifest = _write_corpus(tmp_path, [zero_algebra(GF2, 1)])
    code, out, err = run_cli(capsys, "check", str(manifest), "--theorem", "Bogus")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'Bogus'" in err


@pytest.mark.parametrize("flags,message", [(("--theorem", "Bogus"), "unknown check 'Bogus'"),
                                           (("--jobs", "0"), "jobs"),
                                           (("--theorem", ""), "unknown check ''"),
                                           (("--jobs", "33"), "jobs")])
def test_check_rejects_bad_flags_before_reading_members(capsys, tmp_path, flags, message):
    # the member does not exist, so reading it first would fail differently
    manifest = tmp_path / "manifest.json"
    manifest.write_text(serialize_manifest(["missing.palg"]), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(manifest), *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "missing.palg" not in err


def test_check_list(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check", "unused", "--list")
    assert code == 0
    assert "Thm-4.11" in out and "Def-1.1" in out


def test_check_determinism_across_jobs(capsys, tmp_path):
    manifest = _write_corpus(tmp_path, [zero_algebra(GF2, 2), two_dim_nonabelian(GF2),
                                        heisenberg_zero_dot(GF2)])
    _, out1, _ = run_cli(capsys, "check", str(manifest), "--format", "json", "--jobs", "1")
    a = json.loads(out1)
    a.pop("elapsed_ms")
    for jobs in ("4", "32"):  # 32 is the largest --jobs accepted
        _, out, _ = run_cli(capsys, "check", str(manifest), "--format", "json", "--jobs", jobs)
        b = json.loads(out)
        b.pop("elapsed_ms")
        assert a == b, jobs


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_check_rejects_jobs_below_one(capsys, tmp_path, jobs):
    manifest = _write_corpus(tmp_path, [zero_algebra(GF2, 1)])
    code, out, err = run_cli(capsys, "check", str(manifest), "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "jobs" in err


@pytest.mark.parametrize("flag,name", [("--budget-dim", "max_dim"), ("--budget-q", "max_q"),
                                       ("--budget-subspaces", "max_subspaces")])
@pytest.mark.parametrize("command", ["analyze", "check"])
def test_negative_budget_is_a_usage_error(capsys, tmp_path, heis_file, command, flag, name):
    # analyze --budget-dim -3 used to exit 3, reported as a budget overrun
    target = heis_file if command == "analyze" else _write_corpus(
        tmp_path, [heisenberg_zero_dot(GF2)])
    code, out, err = run_cli(capsys, command, str(target), flag, "-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and name in err


def test_enumerate_writes_files_and_manifest(capsys, tmp_path):
    outdir = tmp_path / "corpus"
    code, out, _ = run_cli(capsys, "enumerate", "1", "2", str(outdir))
    assert code == 0 and "wrote 2 algebras" in out
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["gf2-d1-00000.palg", "gf2-d1-00001.palg", "manifest.json"]
    code, out, _ = run_cli(capsys, "validate", str(outdir / "gf2-d1-00001.palg"))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(outdir / "manifest.json"))
    assert code == 0


def test_check_on_exhaustive_dim2_manifest(capsys, tmp_path):
    outdir = tmp_path / "exh"
    code, _, _ = run_cli(capsys, "enumerate", "2", "2", str(outdir))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(outdir / "manifest.json"), "--jobs", "2")
    assert code == 0
    assert "0 fail" in out


def test_enumerate_budget_exit(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enumerate", "3", "5", str(tmp_path / "x"))
    assert code == 3


def test_enumerate_negative_dim_is_a_usage_error(capsys, tmp_path):
    outdir = tmp_path / "x"
    code, _, err = run_cli(capsys, "enumerate", "-1", "5", str(outdir))
    assert code == 2
    assert err.startswith("error: ") and "dimension n" in err
    assert not outdir.exists()


NOT_UTF8 = b"\xff\xfe{}"


def test_validate_gives_a_row_for_a_file_that_is_not_utf8(capsys, tmp_path, heis_file):
    # the UnicodeDecodeError ended the command with a traceback and no rows
    bad = tmp_path / "latin.palg"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "validate", str(bad), str(heis_file), "--format", "json")
    rows = json.loads(out)["result"]
    assert code == 2 and err == ""
    assert [r["status"] for r in rows] == ["format-error", "valid"]
    assert rows[0]["message"].startswith(f"{bad}: not UTF-8: ")


@pytest.mark.parametrize("command, target", [("analyze", "latin.palg"), ("series", "latin.palg"),
                                             ("check", "latin.palg"), ("check", "manifest.json")])
def test_an_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, command, target):
    # a manifest naming the file, for the member case
    bad = tmp_path / "latin.palg"
    bad.write_bytes(NOT_UTF8)
    (tmp_path / "manifest.json").write_text(serialize_manifest([bad.name]), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: not UTF-8: ") and "Traceback" not in err


@pytest.mark.parametrize("dim, q", [("1", "٣"), ("1", "1_1"), ("١", "2"), (" 1", "2"),
                                    ("1", "３")])
def test_enumerate_takes_ascii_integers_only(capsys, tmp_path, dim, q):
    # int() read "٣" as 3 and "1_1" as 11, and wrote that many algebras
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "enumerate", dim, q, str(outdir))
    assert code == 2 and out == "" and "not an ASCII integer" in err
    assert not outdir.exists()


def test_integer_arguments_keep_signs_and_leading_zeros(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "enumerate", "01", "+2", str(tmp_path / "out"))
    assert code == 0 and "wrote 2 algebras" in out


@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--budget-dim", "٠"), ("analyze", "--budget-q", "3_0"),
    ("analyze", "--budget-subspaces", "１０"), ("check", "--jobs", "٢"),
    ("check", "--budget-dim", "-٣")])
def test_integer_flags_take_ascii_integers_only(capsys, tmp_path, heis_file, command, flag, value):
    target = heis_file if command == "analyze" else _write_corpus(
        tmp_path, [heisenberg_zero_dot(GF2)])
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, command, str(target), flag, value, "--out", str(report))
    assert code == 2 and out == ""
    assert f"argument {flag}: not an ASCII integer: '{value}'" in err
    assert not report.exists()


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["series"]) == 2


def test_out_flag_writes_file(capsys, heis_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(heis_file), "--format", "json",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "analyze"
