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
from floqtess import cli, geodist, hypgeo
from floqtess.cli import _build_parser, _module_of, main
from floqtess.derive import polygon_complex
from floqtess.surface import deserialize, fundamental_polygon, serialize
from helpers import face_sizes
from test_hypgeo import _table_signatures
from test_surface import MALFORMED

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

    # sha256 of json.dumps([[code, stdout, stderr], ...]) over the sweep
    # below, taken before the profiles became the documents geom prints.
    SWEEP_SHA = "d471541125095e43b10d68fd389a31ea257edd99d586f5ad0f9a46fa8188ffd5"

    def test_sweep_pinned(self, capsys):
        """Every table signature (orientable g = 2..12, non-orientable
        g = 3..12), each also rotated once, the {p,q} grid for p, q in
        3..29 with its Euclidean and spherical rejections, and {3,10^155}."""
        triples = _table_signatures()
        sigs = [f"[{a},{b},{c}]" for a, b, c in triples]
        sigs += [f"[{b},{c},{a}]" for a, b, c in triples]
        sigs += [f"{{{p},{q}}}" for p in range(3, 30) for q in range(3, 30)]
        sigs.append("{3,1%s}" % ("0" * 155))
        assert len(triples) == 338 and len(sigs) == 1406
        got = [list(run(capsys, "geom", "--sig", sig)) for sig in sigs]
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == self.SWEEP_SHA

    def test_euclidean_triple_is_domain_error(self, capsys):
        code, out, err = run(capsys, "geom", "--sig", "[6,6,6]")
        assert code == 1 and not out
        assert "floqtess.hypgeo" in err and "Euclidean triple" in err

    def test_spherical_signature_is_domain_error(self, capsys):
        assert run(capsys, "geom", "--sig", "{3,3}") == (
            1, "", "error: floqtess.hypgeo: {3,3} is spherical, not hyperbolic "
            "(need 1/p + 1/q < 1/2)\n"
        )

    def test_small_regular_signature_is_domain_error(self, capsys):
        assert run(capsys, "geom", "--sig", "{2,5}") == (
            1, "", "error: floqtess.hypgeo: {2,5}: face size and valence must be >= 3\n"
        )

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
        cx = deserialize(Path(incenter2).read_text())
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


class TestMalformedDocuments:
    """Each command reading a complex fails on every malformed document of
    ``test_surface.MALFORMED`` with exit 1, no stdout and the message."""

    @pytest.mark.parametrize(
        "command",
        [["color"], ["isg"], ["distance", "--mode", "geo"]],
        ids=["color", "isg", "distance"],
    )
    @pytest.mark.parametrize("make, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected(self, capsys, tmp_path, command, make, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make(serialize(fundamental_polygon(2, True)))))
        got = run(capsys, command[0], "--in", str(path), *command[1:])
        assert got == (1, "", f"error: floqtess.surface: {message}\n")


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
        modes = dict(cli._COMMANDS["table"][2])["--mode"]["choices"]
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

    @pytest.mark.parametrize(
        "genus, message",
        [
            ("x", "expected a genus G or a range A..B, got 'x'"),
            ("2..x", "expected a genus G or a range A..B, got '2..x'"),
            ("5..2", "empty genus range '5..2'"),
        ],
        ids=["word", "range-word", "empty-range"],
    )
    def test_bad_genus_range(self, capsys, genus, message):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--genus", genus, "--orientable", "true"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"floqtess table: error: argument --genus: {message}"

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

    # ``distance --mode exact`` on every complex ``complex build --derive``
    # makes, orientable g = 2..12 and non-orientable g = 3..12: exit code,
    # stdout sha256 and stderr.
    EMPTY = hashlib.sha256(b"").hexdigest()
    BOUND = (
        "error: floqtess.floquet: n={} exceeds the exact-search bound 40; "
        "use geometric estimator\n"
    )
    NO_LOGICAL = (
        "error: floqtess.floquet: k = 0: every steady phase has full rank {}, "
        "so no logical operator exists\n"
    )
    EXACT = {
        (2, "true", "clip"): (0, "c82189de9324046282b7655e543c85df6ce8db2000d3766fc3fc53f5b586b13a", ""),
        (2, "true", "incenter"): (0, "38b7e506283f5e1013562192c4ada8e773ffd41fe4c1318741051eac7ea7c08e", ""),
        (3, "true", "clip"): (0, "aded3240d298553476facec48e85507fd0393bc09c5bdf103317ed1f1c1c4edd", ""),
        (3, "true", "incenter"): (0, "e499dec62c84cdb15c8d6bde96707144088d5d70cbad5f126e4ee5a8dcda77c5", ""),
        (4, "true", "clip"): (0, "0b399577f4e632111ae66250a215bd4574eea089ba7d7bb09e5ab4cc711012e9", ""),
        (4, "true", "incenter"): (0, "2117d07bbd458c8105075b9fa5c797565986b13ad24b6dd4639e00529ae5fa7e", ""),
        (5, "true", "clip"): (0, "d1a60e9f16e9e5672b2416676b6e75b93263b5c31abf472ae311575e5387572b", ""),
        (5, "true", "incenter"): (0, "12f9dce23accdbfae77bf328a28b2d1289ef47fe1d011b7e38c5b340e611bdb4", ""),
        (6, "true", "clip"): (0, "0f5df23eb5a8a7b0de54aa33d7ee1de45b435ac1449493ecb410a65d0ccb4bff", ""),
        (6, "true", "incenter"): (1, EMPTY, BOUND.format(48)),
        (7, "true", "clip"): (0, "49a09935897656129e22eb15c88f37fa7e4f220c71260a43f98129097b78bc6b", ""),
        (7, "true", "incenter"): (1, EMPTY, BOUND.format(56)),
        (8, "true", "clip"): (0, "8ea0e91c677fa6ba31446096274c3931fa9a30564c8207667e3e19061c24a34d", ""),
        (8, "true", "incenter"): (1, EMPTY, BOUND.format(64)),
        (9, "true", "clip"): (0, "ca3fa3ae76f1e3d17fa3a783c2c98b414b869285415834add2f2d4fa6b0f9530", ""),
        (9, "true", "incenter"): (1, EMPTY, BOUND.format(72)),
        (10, "true", "clip"): (0, "2085fb59ce97e25ded800ca0e55bca30bc13ae6dd869279a7cc4343a3ad0adb2", ""),
        (10, "true", "incenter"): (1, EMPTY, BOUND.format(80)),
        (11, "true", "clip"): (1, EMPTY, BOUND.format(44)),
        (11, "true", "incenter"): (1, EMPTY, BOUND.format(88)),
        (12, "true", "clip"): (1, EMPTY, BOUND.format(48)),
        (12, "true", "incenter"): (1, EMPTY, BOUND.format(96)),
        (3, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(6)),
        (3, "false", "incenter"): (0, "836291cf8ce25ef9d49415165aea4ed9e2afd75e07c77e685ea677051febfa96", ""),
        (4, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(8)),
        (4, "false", "incenter"): (0, "38b7e506283f5e1013562192c4ada8e773ffd41fe4c1318741051eac7ea7c08e", ""),
        (5, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(10)),
        (5, "false", "incenter"): (0, "49f40ab43ab6f76a26de7740dbc88347f378b4ba1717164f83c990cba8e84027", ""),
        (6, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(12)),
        (6, "false", "incenter"): (0, "e499dec62c84cdb15c8d6bde96707144088d5d70cbad5f126e4ee5a8dcda77c5", ""),
        (7, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(14)),
        (7, "false", "incenter"): (0, "a65f6403aec3abd6d6f23800f35c64fed61a418bfe4abeb3007492b4c2132dce", ""),
        (8, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(16)),
        (8, "false", "incenter"): (0, "2117d07bbd458c8105075b9fa5c797565986b13ad24b6dd4639e00529ae5fa7e", ""),
        (9, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(18)),
        (9, "false", "incenter"): (0, "c2822ba92a827a5e31159f35159f1206f7ec38ead4ecb2b9a17d9cd56ef55a11", ""),
        (10, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(20)),
        (10, "false", "incenter"): (0, "12f9dce23accdbfae77bf328a28b2d1289ef47fe1d011b7e38c5b340e611bdb4", ""),
        (11, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(22)),
        (11, "false", "incenter"): (1, EMPTY, BOUND.format(44)),
        (12, "false", "clip"): (1, EMPTY, NO_LOGICAL.format(24)),
        (12, "false", "incenter"): (1, EMPTY, BOUND.format(48)),
    }
    # ``distance --mode geo`` stdout sha256 on the same complexes; every one
    # exits 0 with empty stderr, half of them with a clamped estimate.
    GEO = {
        (2, "true", "clip"): "6d70ce8241d0e9a8e027d8e6803612e0ba6f9dad9318d9d16dba9d261ef8048c",
        (2, "true", "incenter"): "c5e461b04eed49c57c65ba3aca0eddf36222ea83380ce917da16b223901323f0",
        (3, "true", "clip"): "ddd15010afb32323db349af88fea43adee2bc22298a9774c4600dcc6d7e69063",
        (3, "true", "incenter"): "66a6f85d0c90f3764aeb183f839569e183fea8895576038e1a43e28b6bc03cfd",
        (4, "true", "clip"): "eee8a5ffdda8300b3a465074a781633296a16f1d01dd981cf75017b1da894de0",
        (4, "true", "incenter"): "c01f1ca26763562515351f06a91dfd3f62c52849cba17706f7acbbb38963edf3",
        (5, "true", "clip"): "2874fd50f99d852ac160c9d393128db82db4519ad1c0bfbe7bef6ce311efa5eb",
        (5, "true", "incenter"): "73bb0dcdd3bae30f1dc64077f3e76d4a33690288598cd8c312dea9435afeceb7",
        (6, "true", "clip"): "d96b0a040ef6d6ecc32131751811889093e3f01a86398301a636be1f2be2b75b",
        (6, "true", "incenter"): "d951cebafecd2201a0314de256dea85237bd21fe66769f7302c828f619b0c768",
        (7, "true", "clip"): "928a51e46fb855e582c12dbe8fe2077ef18f600a58d67776a0cebb2f422ad409",
        (7, "true", "incenter"): "193f5c6dde2556055192d8491a1077a3676915edbd987712c535e20644bf6568",
        (8, "true", "clip"): "235ca409da3bb8e30fa22953d24b06f5f4844d45b9272b0fe70c4ca288688553",
        (8, "true", "incenter"): "0ebede992f2353e72b015a2aa6509ef60a2ebedc97d9c403878db378d864aa70",
        (9, "true", "clip"): "52abfc84a8962c8a4c714c7226264fa8bcc39dc2070b77e1b948cff4c719d910",
        (9, "true", "incenter"): "e2c9d25df6d62f8a1569d86c64d1e5007afb088f459d798b2c2398dcea378f1b",
        (10, "true", "clip"): "5c91f52a80da1cc0a1f5a87578e79f7d1f3d8501c4e63d4531c2ab30461661b8",
        (10, "true", "incenter"): "e12daefac3153f97a03044c7173dee3f228d521fa6263e00abf67ce5ce964209",
        (11, "true", "clip"): "6fb13f52de1752f628b92c6d5d6dea4fcd792564fbed5cb44c2184ae5e5fcb6f",
        (11, "true", "incenter"): "4f2647656e52f50fbcbf1837a0a79b4f0d0b1c876c8ad8f4a05a0402beb64f76",
        (12, "true", "clip"): "b3669400714a30529d70d235f5cbca58033a0368321233be7bb0eb948ae46067",
        (12, "true", "incenter"): "f2aadbb5721b113e856c8f67062bcf83e58323d8f917c3b39d555c8bbdb6a061",
        (3, "false", "clip"): "138472f45be9059496c9a7a420ff8ed7cd3331984abdb7440ed8f87a6dd4a4a4",
        (3, "false", "incenter"): "2a139b45c4c80bc4543da0f27a832fc9005cb5364a21b9e343ee564860ae172c",
        (4, "false", "clip"): "a5f4003a8f95f9813cc962b2639234d1c14e843005d25cb535eaab882816a043",
        (4, "false", "incenter"): "3d604bb1c43ce8cf35f8ab9dfeeb86e9bc59c12f0fe2e63b87dda82bfd1fe0c9",
        (5, "false", "clip"): "b06cf998cde54bb3beb3188b4389fb65b53ac5e0003631f2462be8170458a16b",
        (5, "false", "incenter"): "e376868fb905f0a3eead8db690fbec02be69c3e9e2859ca8c1d1c4f4c05da424",
        (6, "false", "clip"): "7fb039d66c231c1f0431ccbab4f6876c1151ef60f3d64d862aa2015972c0b395",
        (6, "false", "incenter"): "7dab6e99c3a11910700ce874929800e3a4b9a389a3c3c02487bf770f598c16dc",
        (7, "false", "clip"): "c7bb89e15997cdc2c2cac8ff23d4c34c2f02f935e45119564eafa9f1e5e830f8",
        (7, "false", "incenter"): "547c2fff8a0b1b4f208bccacc0161c53b91408ab7305e816da512058628900ef",
        (8, "false", "clip"): "5d909862c838a1ed2d6b6cb96bac57ba940e8d7a4b4f05c5aba83992c3a37ae7",
        (8, "false", "incenter"): "a8bf4977d1a8753a5c7f467e1dc6c62d12f3bfbeffd9cc9c084b52a0e427e368",
        (9, "false", "clip"): "3544da80ec103899f7451c600d94089c4baf73a6d69e0b5adeaede0e141e3b07",
        (9, "false", "incenter"): "de9ac7fde5d34087c5ee61fd6d9e4058e7ccaea9135b9faf5b2d44cb162da99e",
        (10, "false", "clip"): "f0b58eb21a1d91e6d07280a2240445b64b1b98b2590bbe6e91a2de572f924397",
        (10, "false", "incenter"): "8c3d405f745ff4fd9d1f99481999bca234d89e9b98b70ab3606f3d5ac9dd26a5",
        (11, "false", "clip"): "ed765db6ea12ce358393825f17f9c83d3cff0325ee3eaf98105506b1c10a01ca",
        (11, "false", "incenter"): "b17b8cf9a08436e6e90f781bd4adf36eddc1726dee90a69049be153a4c272176",
        (12, "false", "clip"): "9e2fa7106892b0e6cc0e4e4dd735fba59bf8936049067ade29d12202301cde02",
        (12, "false", "incenter"): "14becc10e973ad7530e88dc45af39b38999d4cc0137353333be18d8a6fe10202",
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

    @staticmethod
    def distance(capsys, tmp_path, key, mode):
        genus, orientable, derive = key
        code, out, _ = run(
            capsys, "complex", "build", "--genus", str(genus),
            "--orientable", orientable, "--derive", derive,
        )
        assert code == 0
        path = tmp_path / "cx.json"
        path.write_text(out)
        code, out, err = run(capsys, "distance", "--in", str(path), "--mode", mode)
        return code, hashlib.sha256(out.encode()).hexdigest(), err

    @pytest.mark.parametrize("key", sorted(EXACT, key=str), ids=_argv_id)
    def test_distance_exact(self, capsys, tmp_path, key):
        assert self.distance(capsys, tmp_path, key, "exact") == self.EXACT[key]

    @pytest.mark.parametrize("key", sorted(GEO, key=str), ids=_argv_id)
    def test_distance_geo(self, capsys, tmp_path, key):
        assert self.distance(capsys, tmp_path, key, "geo") == (0, self.GEO[key], "")

    @pytest.mark.parametrize("key", sorted(GEO, key=str), ids=_argv_id)
    def test_derived_build_round_trip(self, capsys, key):
        """Every derived complex the CLI prints decodes to the complex the
        library builds, and that survives another JSON round trip."""
        genus, orientable, derive = key
        code, out, _ = run(
            capsys, "complex", "build", "--genus", str(genus),
            "--orientable", orientable, "--derive", derive,
        )
        assert code == 0
        c = deserialize(out)
        assert c == polygon_complex(derive, genus, orientable == "true")
        assert deserialize(json.dumps(serialize(c))) == c


class TestEstimateCachePinned:
    """Multi-genus tables and equivalence reports, where signatures and
    genera repeat across rows and the signature, chord and systole caches
    hit; sha256 of stdout taken before the caches existed.  Each command
    list runs cold, every one of those caches emptied first, then warm,
    in one process."""

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
        # Cold: every per-process cache of the table path starts empty.
        geodist._chord_table.cache_clear()
        hypgeo._SEMIREGULAR.clear()
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
        yield f"{name}-equals", words + [f"{valid[0]}={valid[1]}", *valid[2:]]
        yield f"{name}-twice", words + valid[:2] + valid
        yield f"{name}-empty-value", words + [valid[0], "", *valid[2:]]
        yield f"{name}-negative-value", words + [valid[0], "-2", *valid[2:]]
        yield f"{name}-flag-as-value", words + valid[:1] + valid[2:]
    yield "no-args", []
    yield "help", ["--help"]
    yield "unknown-command", ["bogus"]
    yield "complex-alone", ["complex"]
    # argparse keeps the last value of a flag given twice.
    yield "table-twice-last-wins", ["table", "--genus", "3", "--genus", "2", "--orientable", "true"]
    yield "complex-unknown-action", ["complex", "bogus", "--genus", "2", "--orientable", "true"]
    yield "complex-action-help", ["complex", "bogus", "-h"]


COMMAND_GRID = dict(_command_grid())


class TestCommandParsers:
    """``main`` reads well-formed calls straight off the declarations; exit
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
        valid = [words + call for words, call, *_ in COMMAND_CALLS.values()]
        for argv in (*valid,
                     ["complex", "build", "--genus", "3", "--orientable", "false",
                      "--derive", "clip"],
                     ["isg", "--rounds", "6", "--in", "{in}"],
                     ["table", "--genus", "2..3", "--orientable", "false",
                      "--mode", "geo", "--format", "json"]):
            argv = [incenter2 if a == "{in}" else a for a in argv]
            # Namespace.__eq__ compares vars(); the fast path's namespace is
            # a SimpleNamespace, so compare those.
            assert vars(cli._parse_declared(argv)) == vars(_build_parser().parse_args(argv))


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
        yield progs
        cli._build_parser.cache_clear()

    def test_a_well_formed_command_constructs_no_parser(self, built, capsys):
        argv = ["table", "--genus", "2", "--orientable", "true"]
        assert main(argv) == 0
        assert built == []
        assert main(argv) == 0
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["table", "--genus", "2", "--orientable", "true", "extra"]],
        ids=["help", "leftover"],
    )
    def test_help_and_leftovers_build_the_whole_parser(self, built, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == WHOLE_PARSER

    def test_a_well_formed_command_leaves_locale_unimported(self):
        # argparse's gettext calls import locale; a fresh process that has
        # not imported it before a well-formed call has not after it either.
        code = (
            "import contextlib, io, sys\n"
            "from floqtess import cli\n"
            "before = 'locale' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['table', '--genus', '2', '--orientable', 'true'])\n"
            "print(code, before, 'locale' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=PACKAGE_ROOT, check=True,
        )
        exit_code, before, after = proc.stdout.split()
        assert exit_code == "0"
        assert before == "True" or after == "False"


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
