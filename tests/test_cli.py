"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import floqtess
from floqtess import cli, geodist
from floqtess.cli import _build_parser, _module_of, main
from floqtess.surface import deserialize
from helpers import face_sizes

# Fresh CLI processes run here, so ``-m floqtess.cli`` imports the same
# package as this run even when it is not installed.
PACKAGE_ROOT = Path(floqtess.__file__).parents[1]


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


# Exact `geom` stdout for the triples whose 12-digit output moves when the
# edge-length solve takes no Newton step or two of them.
_GEOM_PINS = {
    "[4,6,16]": """\
{
  "signature": {
    "kind": "semiregular",
    "m": [
      4,
      6,
      16
    ]
  },
  "edge_length": 0.26951339085,
  "apothems": [
    0.133549537626,
    0.229970382049,
    0.630735922115
  ],
  "circumradii": [
    0.190006703129,
    0.267141081705,
    0.646784834736
  ],
  "incenter_gaps": [
    0.363519919675,
    0.860706304164,
    0.764285459741
  ]
}
""",
    "[6,16,16]": """\
{
  "signature": {
    "kind": "semiregular",
    "m": [
      6,
      16,
      16
    ]
  },
  "edge_length": 0.856392289846,
  "apothems": [
    0.652194716271,
    1.45701769386,
    1.45701769386
  ],
  "circumradii": [
    0.796030078916,
    1.55524340536,
    1.55524340536
  ],
  "incenter_gaps": [
    2.10921241013,
    2.91403538772,
    2.10921241013
  ]
}
""",
    "[3,8,25]": """\
{
  "signature": {
    "kind": "semiregular",
    "m": [
      3,
      8,
      25
    ]
  },
  "edge_length": 0.0623275305675,
  "apothems": [
    0.017985616226,
    0.0751409088435,
    0.244173240914
  ],
  "circumradii": [
    0.0359828760462,
    0.0813582414646,
    0.246192963088
  ],
  "incenter_gaps": [
    0.0931265250695,
    0.319314149758,
    0.26215885714
  ]
}
""",
    "[4,8,72]": """\
{
  "signature": {
    "kind": "semiregular",
    "m": [
      4,
      8,
      72
    ]
  },
  "edge_length": 0.551119385788,
  "apothems": [
    0.265654818493,
    0.610316649766,
    2.51715750187
  ],
  "circumradii": [
    0.385064212877,
    0.676440001412,
    2.55512622692
  ],
  "incenter_gaps": [
    0.875971468259,
    3.12747415163,
    2.78281232036
  ]
}
""",
}


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

    @pytest.mark.parametrize("sig", sorted(_GEOM_PINS))
    def test_fragile_triples_keep_their_bytes(self, capsys, sig):
        assert run(capsys, "geom", "--sig", sig) == (0, _GEOM_PINS[sig], "")

    def test_euclidean_triple_is_domain_error(self, capsys):
        code, out, err = run(capsys, "geom", "--sig", "[6,6,6]")
        assert code == 1 and not out
        assert "floqtess.hypgeo" in err and "Euclidean triple" in err

    def test_malformed_signature(self, capsys):
        code, _, err = run(capsys, "geom", "--sig", "(6,6)")
        assert code == 1
        assert "unrecognized signature" in err

    def test_huge_q_keeps_a_finite_edge_length(self, capsys):
        code, out, err = run(capsys, "geom", "--sig", "{3,1%s}" % ("0" * 155))
        assert code == 0 and not err
        assert 0 < json.loads(out)["edge_length"] < math.inf

    @pytest.mark.parametrize("sig", ["{3,1%s}", "[6,6,1%s]"], ids=["regular", "semiregular"])
    def test_face_size_beyond_float_range_is_domain_error(self, sig):
        cmd = [sys.executable, "-m", "floqtess.cli", "geom", "--sig", sig % ("0" * 400)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=PACKAGE_ROOT)
        assert done.returncode == 1 and not done.stdout
        assert done.stderr.startswith("error: floqtess.hypgeo:")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


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
        assert sorted(set(face_sizes(cx))) == [4, 16]

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

    def test_every_mode_prints_a_table(self, capsys):
        # Each --mode the parser offers has to succeed, so a mode that can
        # only fail cannot be offered.
        table = cli._command_parser("table")
        modes = next(a for a in table._actions if a.dest == "mode").choices
        assert modes
        for mode in modes:
            for genus, orientable in (("2", "true"), ("3", "false")):
                code, out, err = run(
                    capsys, "table", "--genus", genus, "--orientable", orientable,
                    "--mode", mode,
                )
                assert (code, err) == (0, "")
                assert len(out.splitlines()) > 1


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

    def test_table_has_no_exact_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--genus", "2", "--orientable", "true", "--mode", "exact"])
        assert exc.value.code == 2
        assert "invalid choice: 'exact'" in capsys.readouterr().err

    def test_help_available_everywhere(self, capsys):
        for cmd in (["--help"], ["geom", "--help"], ["table", "--help"],
                    ["complex", "build", "--help"], ["equiv", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(cmd)
            assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--genus" in help_text


def _argv_id(argv) -> str:
    return "_".join(str(a).lstrip("-") for a in argv if a is not None)


class TestStdoutPinned:
    """sha256 of in-process stdout, taken before the derivations were rebuilt
    on flag-orbit walks; any change to the printed bytes fails here."""

    BUILDS = {
        (2, "true", None): "b59a55ca40713c621d7f728d096c304dc00d62f81d09985156d6f056b4fbcd16",
        (2, "true", "clip"): "aac5e34b19ff08676ab09a8b42de7e4d8ce9667024ad9871223e54e9d7b75eca",
        (2, "true", "incenter"): "7a3a71761817133de8eff5c63f8f422e6cd6bc82967499dc390152ba9ff76547",
        (5, "true", None): "0fd678fa6dadf45090e8997daf5ffe3c3f3fd4c0185b48ca3f9342388eac7c84",
        (5, "true", "clip"): "50fabb3659769e31c43a9f3f636814d157db9910b9689f85402e7523e6e13ed5",
        (5, "true", "incenter"): "ee798540b906857556873e7d2a328948bd1c18d158950f068f233d03544e1850",
        (12, "true", None): "d52108508b7f94fcc3c59bd47e48daec2a80535cf3450a87ab6499b6c58ebf56",
        (12, "true", "clip"): "2fc8151bcc21bd73824f637b09862acc676d06d884b839a8c0d4db2e41fc5c99",
        (12, "true", "incenter"): "c9f2d23c695d5823d22888b283bb749026be52a0a0349668342a0b083c9c40ed",
        (3, "false", None): "d5691383673d019c6cf5b52530bfe9016f862b0a8f1ae2974e606d6d940c271f",
        (3, "false", "clip"): "aee282c63c560bdbf946af9d28f7aeb746a80148b2d7f1947a27d879b8da1a83",
        (3, "false", "incenter"): "7cc28034fdf9f50781daa959fbcc3c1536fee99f2fb19f4b7e5cff813eb4d614",
        (8, "false", None): "5137c72c31b1d6c85bc6b75408f59d86e560929087e6743cfda893bc1d3dc172",
        (8, "false", "clip"): "1f16a7c769f27583e67b34ae4b72fceb9f95baf7cc52489c39b9a8eb303fdb30",
        (8, "false", "incenter"): "43c9f0d0e730b76b6789bc742119f9e80706cd4291e3f7250c2299ae72b79b91",
    }
    # Subcommands reading the orientable genus-2 incenter complex.
    ON_INCENTER2 = {
        ("color",): "548060e17c7a11ab2395a464f7a13a31d9cfc093b265795b978b01d908fbfbb5",
        ("isg",): "ed620e02594c5c99fb56a82b3ebcb25e46f332c3feb3aa31d39c02133bb81559",
        ("distance", "--mode", "exact"): "38b7e506283f5e1013562192c4ada8e773ffd41fe4c1318741051eac7ea7c08e",
        ("distance", "--mode", "geo"): "c5e461b04eed49c57c65ba3aca0eddf36222ea83380ce917da16b223901323f0",
    }
    REPORTS = {
        ("table", "--genus", "2..3", "--orientable", "true", "--mode", "auto"):
            "e5b9c83433bf209d7aab76c03cfcf59bdb4f31b94840a51b32aca6a6a3faf7be",
        ("table", "--genus", "3", "--orientable", "false", "--mode", "auto"):
            "921fe10eaca6c02aac064a6b2db86c609f3416b88d4ba05c9f59973e06844c3f",
        ("equiv", "--genus", "2"):
            "d01f3bfe9d2520979ac07d79ae04fefbacdc0cbad08b81398c47d528afe39d08",
    }

    @staticmethod
    def digest(capsys, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("key", sorted(BUILDS, key=str), ids=_argv_id)
    def test_complex_build(self, capsys, key):
        genus, orientable, derive = key
        argv = ["complex", "build", "--genus", str(genus), "--orientable", orientable]
        if derive is not None:
            argv += ["--derive", derive]
        assert self.digest(capsys, *argv) == self.BUILDS[key]

    @pytest.mark.parametrize("argv", sorted(ON_INCENTER2), ids=_argv_id)
    def test_on_incenter2(self, capsys, incenter2, argv):
        got = self.digest(capsys, argv[0], "--in", incenter2, *argv[1:])
        assert got == self.ON_INCENTER2[argv]

    @pytest.mark.parametrize("argv", sorted(REPORTS), ids=_argv_id)
    def test_reports(self, capsys, argv):
        assert self.digest(capsys, *argv) == self.REPORTS[argv]


class TestEstimateCachePinned:
    """Multi-genus tables and equivalence reports, where signatures repeat
    across rows and the estimator's chord cache hits; sha256 of stdout
    taken before the cache existed.  Each command list runs cold, then
    warm, in one process."""

    TABLES = {
        ("2..12", "true", "auto", "csv"):
            "3b0ec902a6293c65185d70949c3314ba1aef7d499dce1f320ef0659e6af8ae8c",
        ("2..12", "true", "auto", "json"):
            "48c9d77459ad013426be6e593fbc74f854cf6dd427a0b63ad73371013c9dce97",
        ("2..12", "true", "geo", "csv"):
            "d83432e812e8c506e0a3ac0293cfde5a77668d004258b81756c04e015a5a2520",
        ("2..12", "true", "geo", "json"):
            "b71c70701db2def1d9f38b76a3f1da03a67b98e3789b404ef8078598d0081acc",
        ("3..12", "false", "auto", "csv"):
            "fc54d1289ee56eb2e833614f09b698cccd5518cb0844e298dc3614c2c1f40b7f",
        ("3..12", "false", "auto", "json"):
            "e8e13849445c9c15c87f13f2156aa5d181a2bd28ebfea0479cd66181bccb39ea",
        ("3..12", "false", "geo", "csv"):
            "74981769fee2023a5428bad8fadb6a9081829daa7b4bcc61cdf83d00ca181689",
        ("3..12", "false", "geo", "json"):
            "61cdc7ffb9348644fabd4b60e5c25b97c85077ea0c8e2061df6b788d0dc2be7c",
    }
    EQUIV = {
        2: "d01f3bfe9d2520979ac07d79ae04fefbacdc0cbad08b81398c47d528afe39d08",
        3: "4508de37ac831ecb744dcb162c042503c466e1f0df412c2680a0a969a55aca68",
        4: "b24dfad3d1d2ac18ef265d24437250b324db7dcb72aa08fa9abe1a86ae41fefe",
        5: "f3ea8a66ffe5356f1e48bb6f9ba0987468e75d1b0f4968d143907c8f1705fd64",
        6: "fac53581d4ed60229ff17e4e908bdb61f671a6ecf6ebb93cd6718543394f186c",
    }

    @staticmethod
    def outputs(capsys, commands):
        geodist._chord_table.cache_clear()
        runs = []
        for _ in range(2):
            got = []
            for argv in commands:
                code, out, err = run(capsys, *argv)
                got.append((code, hashlib.sha256(out.encode()).hexdigest(), err))
            runs.append(got)
        return runs

    def test_tables_cold_and_warm(self, capsys):
        commands = [
            ("table", "--genus", g, "--orientable", o, "--mode", mode, "--format", fmt)
            for g, o, mode, fmt in self.TABLES
        ]
        want = [(0, sha, "") for sha in self.TABLES.values()]
        assert self.outputs(capsys, commands) == [want, want]

    def test_equiv_cold_and_warm(self, capsys):
        commands = [("equiv", "--genus", str(h)) for h in self.EQUIV]
        want = [(0, sha, "") for sha in self.EQUIV.values()]
        assert self.outputs(capsys, commands) == [want, want]


class TestDeterminism:
    def test_byte_identical_runs(self):
        cmd = [
            sys.executable, "-m", "floqtess.cli", "table",
            "--genus", "2..2", "--orientable", "true", "--mode", "auto",
        ]
        first = subprocess.run(cmd, capture_output=True, text=True, cwd=PACKAGE_ROOT)
        second = subprocess.run(cmd, capture_output=True, text=True, cwd=PACKAGE_ROOT)
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
                capture_output=True, text=True, cwd=PACKAGE_ROOT,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == [fresh[0], fresh[1], fresh[1]]
        assert in_process[0][0] == 2 and in_process[1][0] == 0
        assert _build_parser() is _build_parser()


def _whole_parser_main(argv) -> int:
    """``main`` with every argv parsed by the whole parser."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {_module_of(exc)}: {exc}", file=sys.stderr)
        return 1


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Per command: its words, a valid call's options, the same with a bad value,
# and with an abbreviated option.  "{in}" is the genus-2 incenter complex.
COMMAND_CALLS = {
    "geom": (["geom"], ["--sig", "{8,3}"], ["--sig", "(6,6)"], ["--si", "{8,3}"]),
    "complex build": (
        ["complex", "build"], ["--genus", "2", "--orientable", "true"],
        ["--genus", "2", "--orientable", "maybe"], ["--gen", "2", "--orientable", "true"],
    ),
    "color": (["color"], ["--in", "{in}"], ["--in", "/nonexistent.json"], ["--i", "{in}"]),
    "isg": (
        ["isg"], ["--in", "{in}"], ["--in", "{in}", "--rounds", "x"],
        ["--in", "{in}", "--rou", "6"],
    ),
    "distance": (
        ["distance"], ["--in", "{in}", "--mode", "geo"],
        ["--in", "{in}", "--mode", "fast"], ["--in", "{in}", "--mo", "geo"],
    ),
    "table": (
        ["table"], ["--genus", "2", "--orientable", "true"],
        ["--genus", "3..2", "--orientable", "true"], ["--gen", "2", "--orientable", "true"],
    ),
    "equiv": (["equiv"], ["--genus", "2"], ["--genus", "two"], ["--gen", "2"]),
}


def _command_grid():
    for command, (words, valid, bad, abbreviated) in COMMAND_CALLS.items():
        name = command.replace(" ", "-")
        yield f"{name}-valid", words + valid
        yield f"{name}-help", words + ["-h"]
        yield f"{name}-bad-value", words + bad
        yield f"{name}-missing", words
        yield f"{name}-unknown-flag", words + valid + ["--bogus"]
        yield f"{name}-leftover", words + valid + ["extra"]
        yield f"{name}-dashdash-first", words + ["--"] + valid
        yield f"{name}-dashdash-last", words + valid + ["--"]
        yield f"{name}-abbreviated", words + abbreviated
    yield "no-args", []
    yield "help", ["--help"]
    yield "unknown-command", ["bogus"]
    yield "complex-alone", ["complex"]


COMMAND_GRID = dict(_command_grid())


class TestCommandParsers:
    """``main`` parses with the named command's parser where it can; exit
    codes and printed bytes must be those of the whole parser."""

    @pytest.mark.parametrize("argv", COMMAND_GRID.values(), ids=COMMAND_GRID.keys())
    def test_main_matches_the_whole_parser(self, capsys, monkeypatch, incenter2, argv):
        # Usage text wraps at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        argv = [incenter2 if a == "{in}" else a for a in argv]
        got = _outcome(capsys, main, argv)
        want = _outcome(capsys, _whole_parser_main, argv)
        assert got == want

    def test_fresh_processes_match(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (COMMAND_GRID["table-valid"], COMMAND_GRID["table-leftover"]):
            proc = subprocess.run(
                [sys.executable, "-m", "floqtess.cli", *argv],
                capture_output=True, text=True, cwd=PACKAGE_ROOT,
            )
            want = _outcome(capsys, _whole_parser_main, argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_namespace_is_the_whole_parsers(self, incenter2):
        for argv in (["complex", "build", "--genus", "2", "--orientable", "true"],
                     ["distance", "--in", incenter2, "--mode", "geo"],
                     ["table", "--genus", "2..3", "--orientable", "false"]):
            assert cli._parse(argv) == _build_parser().parse_args(argv)


WHOLE_PARSER = [
    "floqtess", "floqtess geom", "floqtess complex", "floqtess complex build",
    "floqtess color", "floqtess isg", "floqtess distance", "floqtess table",
    "floqtess equiv",
]


class TestParsersBuilt:
    """The progs of the argparse parsers a call constructs, in order."""

    @pytest.fixture()
    def built(self, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def recording_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        cli._build_parser.cache_clear()
        cli._command_parser.cache_clear()
        yield progs
        cli._build_parser.cache_clear()
        cli._command_parser.cache_clear()

    def test_a_command_builds_only_its_parser_once(self, built, capsys):
        argv = ["table", "--genus", "2", "--orientable", "true"]
        assert main(argv) == 0
        assert built == ["floqtess table"]
        assert main(argv) == 0
        assert built == ["floqtess table"]

    @pytest.mark.parametrize(
        "argv, progs",
        [(["--help"], WHOLE_PARSER),
         (["table", "--genus", "2", "--orientable", "true", "extra"],
          ["floqtess table", *WHOLE_PARSER])],
        ids=["help", "leftover"],
    )
    def test_help_and_leftovers_build_the_whole_parser(self, built, capsys, argv, progs):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == progs


class TestModuleName:
    def test_python_m_names_the_module_as_main_does(self, capsys, tmp_path):
        # Errors raised in cli.py's own frames: a complex with no uniform
        # tri-valent vertex type, and a file that cannot be read.
        _, out, _ = run(capsys, "complex", "build", "--genus", "2", "--orientable", "true")
        polygon = tmp_path / "fp.json"
        polygon.write_text(out)
        for argv in (["distance", "--mode", "geo", "--in", str(polygon)],
                     ["isg", "--in", "/nonexistent"]):
            in_process = run(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "floqtess.cli", *argv],
                capture_output=True, text=True, cwd=PACKAGE_ROOT,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == in_process
            assert in_process[2].startswith("error: floqtess.cli: ")


class TestWithoutNumpy:
    def test_exact_row_and_table_run_without_numpy(self):
        # numpy set to None in sys.modules makes any import of it fail.
        script = "\n".join([
            "import sys",
            "sys.modules['numpy'] = None",
            "from floqtess.cli import main",
            "from floqtess.floquet import code_params",
            "cp = code_params((4, 16, 16), 2, True)",
            "print(f'[[{cp.n},{cp.k},{cp.d}]]', cp.d_source)",
            "raise SystemExit(main(['table', '--genus', '2', '--orientable', 'true']))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=PACKAGE_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "[[16,4,2]] exact"
