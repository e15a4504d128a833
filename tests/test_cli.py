"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from floqtess.cli import _build_parser, main
from floqtess.surface import deserialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def incenter2(tmp_path, capsys):
    code, out, _ = run(
        capsys, "complex", "build", "--genus", "2", "--orientable", "true",
        "--derive", "incenter",
    )
    assert code == 0
    path = tmp_path / "incenter2.json"
    path.write_text(out)
    return str(path)


@pytest.fixture()
def clip3_nonorientable(tmp_path, capsys):
    code, out, _ = run(
        capsys, "complex", "build", "--genus", "3", "--orientable", "false",
        "--derive", "clip",
    )
    assert code == 0
    path = tmp_path / "clip3.json"
    path.write_text(out)
    return str(path)


class TestGeom:
    def test_regular(self, capsys):
        code, out, _ = run(capsys, "geom", "--sig", "{8,3}")
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"] == {"kind": "regular", "p": 8, "q": 3}
        assert doc["edge_length"] == pytest.approx(0.7270398393505134, abs=1e-11)
        assert doc["apothem"] < doc["circumradius"]

    def test_semiregular(self, capsys):
        code, out, _ = run(capsys, "geom", "--sig", "[6,6,8]")
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"]["m"] == [6, 6, 8]
        assert len(doc["apothems"]) == len(doc["circumradii"]) == 3
        # The gap across the octagon's edge equals the parent {8,3} edge.
        assert doc["incenter_gaps"][0] == pytest.approx(0.727039839351, abs=1e-11)

    def test_euclidean_triple_is_domain_error(self, capsys):
        code, out, err = run(capsys, "geom", "--sig", "[6,6,6]")
        assert code == 1 and not out
        assert "floqtess.hypgeo" in err and "Euclidean triple" in err

    def test_malformed_signature(self, capsys):
        code, _, err = run(capsys, "geom", "--sig", "(6,6)")
        assert code == 1
        assert "unrecognized signature" in err


class TestComplexBuild:
    def test_fundamental_polygon_roundtrips(self, capsys):
        code, out, _ = run(
            capsys, "complex", "build", "--genus", "2", "--orientable", "true"
        )
        assert code == 0
        cx = deserialize(out)
        assert (len(cx.vertices), len(cx.edges), len(cx.faces)) == (1, 4, 1)

    def test_incenter_counts(self, capsys, incenter2):
        cx = deserialize(open(incenter2).read())
        assert len(cx.vertices) == 16
        assert sorted(set(cx.face_sizes())) == [4, 16]

    def test_clip_counts(self, capsys):
        code, out, _ = run(
            capsys, "complex", "build", "--genus", "2", "--orientable", "true",
            "--derive", "clip",
        )
        cx = deserialize(out)
        assert len(cx.vertices) == 8 and len(cx.faces) == 2

    def test_bad_genus(self, capsys):
        code, _, err = run(
            capsys, "complex", "build", "--genus", "1", "--orientable", "true"
        )
        assert code == 1 and "genus" in err


class TestColor:
    def test_checks_emitted(self, capsys, incenter2):
        code, out, _ = run(capsys, "color", "--in", incenter2)
        assert code == 0
        checks = json.loads(out)
        assert len(checks) == 24  # one per edge
        assert {c["pauli"] for c in checks} == {"XX", "YY", "ZZ"}
        assert all(len(c["qubits"]) == 2 for c in checks)

    def test_uncolorable_diagnostic(self, capsys, clip3_nonorientable):
        code, out, _ = run(capsys, "color", "--in", clip3_nonorientable)
        assert code == 1
        doc = json.loads(out)
        assert doc["colorable"] is False
        assert "floqtess.coloring" in doc["error"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "color", "--in", "/nonexistent.json")
        assert code == 1 and "error" in err


    def test_malformed_document(self, capsys, tmp_path):
        doc = {"orientable": True, "genus": 2, "vertices": 5, "edges": [], "faces": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "color", "--in", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: floqtess.surface: key 'vertices' must be a list")

class TestIsg:
    def test_rank_trajectory(self, capsys, incenter2):
        code, out, _ = run(capsys, "isg", "--in", incenter2, "--rounds", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["schedule"] == "face-coloring"
        assert doc["ranks"] == [8, 9, 9, 12, 12, 12, 12, 12, 12]
        assert doc["steady_round"] == 6 and doc["k"] == 4

    def test_edge_schedule_fallback_reports_k0(self, capsys, clip3_nonorientable):
        code, out, _ = run(capsys, "isg", "--in", clip3_nonorientable)
        assert code == 0
        doc = json.loads(out)
        assert doc["schedule"] == "edge-coloring" and doc["k"] == 0

    def test_too_few_rounds(self, capsys, incenter2):
        code, _, err = run(capsys, "isg", "--in", incenter2, "--rounds", "3")
        assert code == 1 and "6" in err


class TestDistance:
    def test_exact(self, capsys, incenter2):
        code, out, _ = run(capsys, "distance", "--in", incenter2, "--mode", "exact")
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["k"], doc["d"]) == (16, 4, 2)
        assert doc["d_source"] == "exact"

    def test_geo(self, capsys, incenter2):
        code, out, _ = run(capsys, "distance", "--in", incenter2, "--mode", "geo")
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"] == [4, 16, 16]
        assert doc["d"] == 2 and doc["d_source"] == "geometric-estimate"
        assert doc["convention"].startswith("red=")

    def test_exact_without_logicals(self, capsys, clip3_nonorientable):
        code, _, err = run(
            capsys, "distance", "--in", clip3_nonorientable, "--mode", "exact"
        )
        assert code == 1 and "no logical operator" in err

    def test_geo_needs_trivalent_complex(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "complex", "build", "--genus", "2", "--orientable", "true"
        )
        path = tmp_path / "fp.json"
        path.write_text(out)
        code, _, err = run(capsys, "distance", "--in", str(path), "--mode", "geo")
        assert code == 1 and "tri-valent" in err


class TestTable:
    def test_csv_genus2(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "2..2", "--orientable", "true",
            "--mode", "auto",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "genus,orientable,signature,n,k,d,d_source,k_n,kd2_n,d_n"
        assert len(lines) == 23
        assert any(line.startswith('2,true,"[6,6,8]",48,4,4,') for line in lines)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "3..3", "--orientable", "false",
            "--mode", "geo", "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert {tuple(d["signature"]) for d in docs} >= {(6, 12, 12), (8, 8, 8)}
        assert all(d["k"] == 3 for d in docs)

    def test_genus_range_spans(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "2..3", "--orientable", "true",
            "--mode", "geo",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 22 + 37

    def test_single_genus_form(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "2", "--orientable", "true", "--mode", "geo"
        )
        assert code == 0 and len(out.splitlines()) == 23


class TestEquiv:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "equiv", "--genus", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["genus_nonorientable"] == 4
        assert doc["systole_difference"] == 0.0
        assert doc["signatures_checked"] == 22


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["geom", "--sig", "{8,3}", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_bool(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--genus", "2", "--orientable", "yes"])
        assert exc.value.code == 2

    def test_help_available_everywhere(self, capsys):
        for cmd in (["--help"], ["geom", "--help"], ["table", "--help"],
                    ["complex", "build", "--help"], ["equiv", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(cmd)
            assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--genus" in help_text


class TestDeterminism:
    def test_byte_identical_runs(self):
        cmd = [
            sys.executable, "-m", "floqtess.cli", "table",
            "--genus", "2..2", "--orientable", "true", "--mode", "auto",
        ]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestParserReuse:
    def test_repeat_calls_match_fresh_processes(self, capsys, monkeypatch):
        # Usage text wraps at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        usage = ["table", "--genus", "2", "--orientable", "yes"]
        ok = ["geom", "--sig", "{8,3}"]
        in_process = []
        with pytest.raises(SystemExit) as exc:
            main(usage)
        in_process.append((exc.value.code, *capsys.readouterr()))
        for _ in range(2):
            code = main(ok)
            in_process.append((code, *capsys.readouterr()))
        fresh = []
        for argv in (usage, ok):
            proc = subprocess.run(
                [sys.executable, "-m", "floqtess.cli", *argv],
                capture_output=True, text=True,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == [fresh[0], fresh[1], fresh[1]]
        assert in_process[0][0] == 2 and in_process[1][0] == 0
        assert _build_parser() is _build_parser()
