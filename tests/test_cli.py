import copy
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import paramod
from paramod import higgslimit, stability
from paramod.cli import build_parser, main
from paramod.exactnum import Poly, PreconditionError
from paramod.higgslimit import HiggsError
from paramod.parastruct import stratum_from_label
from paramod.spectra import SpectrumError
from paramod.stability import OnWallError

Z = "0,1,2,3,4"
NU1 = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-5/4"
NU0 = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4"
W_SMALL = "1/8,1/9,1/7,1/11,1/13"
GOLDEN = Path(__file__).with_name("golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestClassifyCli:
    def test_spec_example(self, capsys):
        data = run_json(
            capsys, "classify", "--bundle", "B", "--z", Z, "--u", "1,0,0,0,0"
        )
        assert data["stratum"] == "U2"
        assert data["coords"] == ["1", "0", "0"]

    def test_bprime(self, capsys):
        data = run_json(
            capsys, "classify", "--bundle", "Bprime", "--z", Z, "--u", "0,1,16,81,256"
        )
        assert data["stratum"] == "Bprime-generic-indecomposable"


class TestStabilityCli:
    def test_spec_example(self, capsys):
        data = run_json(
            capsys,
            "stability",
            "--bundle", "B",
            "--z", Z,
            "--u", "0,0,0,0,1",
            "--w", "1/10,1/10,1/10,1/10,1/10",
        )
        assert data["stable"] is False
        assert data["worst"]["deg"] == 1
        assert data["worst"]["margin"] == "-1/2"

    def test_on_wall_exit_code(self, capsys):
        code, _ = run(
            capsys,
            "stability",
            "--bundle", "B",
            "--z", Z,
            "--u", "0,0,0,0,1",
            "--w", "1/5,1/5,1/5,1/5,1/5",
        )
        assert code == 3

    def test_malformed_exit_code(self, capsys, tmp_path):
        # JSON payloads of the wrong type are malformed input too
        structure_int = tmp_path / "structure_int.json"
        structure_int.write_text(json.dumps({"structure": 5}))
        array = tmp_path / "array.json"
        array.write_text(json.dumps([1, 2]))
        int_theta = tmp_path / "int_theta.json"
        int_theta.write_text(
            json.dumps({"component": "F1", "chart": "top", "theta": [0, 1, 2]})
        )
        # classify's output for a decomposable structure: U2-dec
        u2_dec = tmp_path / "u2_dec.json"
        u2_dec.write_text(json.dumps(
            run_json(capsys, "classify", "--bundle", "B", "--z", Z, "--u", "0,1,2,3,4")
        ))
        # an unknown chart and an all-zero theta
        side_chart = tmp_path / "side_chart.json"
        side_chart.write_text(
            json.dumps({"component": "F1", "chart": "side", "theta": ["0", "1", "2"]})
        )
        zero_theta = tmp_path / "zero_theta.json"
        zero_theta.write_text(
            json.dumps({"component": "F1", "chart": "top", "theta": ["0", "0", "0"]})
        )
        for argv in (
            ("stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0",
             "--w", "1/10,1/10,1/10,1/10,1/10"),
            ("classify", "--bundle", "B", "--z", "0,1,2,3,1/0", "--u", "1,0,0,0,0"),
            ("stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1",
             "--w", "1/0,1/10,1/10,1/10,1/10"),
            ("validate", "--json", str(structure_int)),
            ("limit", "--json", str(array), "--w", W_SMALL),
            ("fiber", "--json", str(array), "--z", Z, "--nu", NU1, "--d", "1"),
            ("weights", "--json", str(array)),
            ("canonicalize", "--json", str(int_theta), "--z", Z),
            ("weights",),
            # stratum labels that classify never prints, and a -dec label
            *(("weights", "--stratum", label) for label in (
                "U''(1,9)", "U''(1)", "U''(1,0)", "U2-dec", "U2xyz", "U(0)",
                "U(9)", "U(1,2)", "U''(3,2)",
            )),
            ("weights", "--json", str(u2_dec)),
            *((cmd, "--json", str(bad), *rest)
              for bad in (side_chart, zero_theta)
              for cmd, *rest in (("canonicalize", "--z", Z),
                                 ("fiber", "--z", Z, "--nu", NU1, "--d", "1"))),
            # marked point indices outside 1..5 and a malformed sign pattern
            ("elm-weight", "--w", W_SMALL, "--j", "0"),
            ("elm-weight", "--w", W_SMALL, "--j", "9"),
            ("elm-spectrum", "--nu", NU1, "--d", "1", "--j", "0"),
            ("mc", "--nu", NU1, "--d", "1", "--sigma", "++",
             "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4"),
        ):
            code, _ = run(capsys, *argv)
            assert code == 2, argv


class TestStratumLabels:
    def test_every_b_label_round_trips(self, capsys):
        # flags z + 1 are collinear, z^2 are not, on z = 0..4: each pattern
        # of infinite flags, decomposable and not
        labels = set()
        for n in range(6):
            for inf in combinations(range(5), n):
                for finite in (["1", "2", "3", "4", "5"], ["0", "1", "4", "9", "16"]):
                    u = ",".join("inf" if i in inf else v for i, v in enumerate(finite))
                    data = run_json(capsys, "classify", "--bundle", "B", "--z", Z, "--u", u)
                    label = data["stratum"]
                    stratum = stratum_from_label(label)
                    assert stratum.label() == label
                    assert stratum.decomposable == data["decomposable"]
                    code, _ = run(capsys, "weights", "--stratum", label)
                    assert code == (2 if data["decomposable"] else 0), label
                    labels.add(label)
        # U2, U(i), U'(i,j), U''(i,j) and U+ with their -dec halves
        assert len(labels) == 2 + 10 + 10 + 10 + 16


class TestCountsCli:
    def test_33_orbits(self, capsys):
        data = run_json(capsys, "counts", "--bundle", "Bprime", "--z", Z)
        assert data == {"orbits": 33}


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        args = ["classify", "--bundle", "B", "--z", Z, "--u", "inf,1/2,0,3,4"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_tables_identical_bytes(self, capsys):
        _, out1 = run(capsys, "tables", "--suite", "special-loci")
        _, out2 = run(capsys, "tables", "--suite", "special-loci")
        assert out1 == out2 and out1


# the README invocations, run in order in one directory; the golden file of
# each holds the bytes it emits, on stdout or in its --out file
README_EXAMPLES = [
    ("classify", ["classify", "--bundle", "B", "--z", Z, "--u", "1,0,0,0,0"]),
    ("stability", ["stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1",
                   "--w", "1/10,1/10,1/10,1/10,1/10"]),
    ("counts", ["counts", "--bundle", "Bprime", "--z", Z]),
    ("weights", ["weights", "--stratum", "U2"]),
    ("spectrum", ["spectrum", "--nu", NU1, "--d", "1"]),
    ("elm-spectrum", ["elm-spectrum", "--nu", NU1, "--d", "1", "--j", "1"]),
    ("mc", ["mc", "--nu", NU0, "--d", "0", "--sigma", "+++++",
            "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4"]),
    ("solve", ["solve", "--bundle", "B", "--z", Z, "--u", "1,2,3,5,7", "--nu", NU1,
               "--params", "1,2", "--out", "triple.json"]),
    ("limit", ["limit", "--json", "triple.json", "--w", W_SMALL, "--out", "limit.json"]),
    ("fiber", ["fiber", "--json", "limit.json", "--z", Z, "--nu", NU1, "--d", "1"]),
    ("tables-orbits", ["tables", "--suite", "orbits"]),
    ("tables-special-loci", ["tables", "--suite", "special-loci"]),
    ("tables-chambers", ["tables", "--suite", "chambers"]),
    ("tables-fibers", ["tables", "--suite", "fibers"]),
]


class TestReadmeGolden:
    def test_readme_examples_match_golden_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, argv in README_EXAMPLES:
            code, out = run(capsys, *argv)
            assert code == 0, name
            emitted = out.encode()
            if "--out" in argv:
                assert out == ""
                emitted = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
            assert emitted == (GOLDEN / f"{name}.out").read_bytes(), name


# every subcommand once, with the files it writes, run in order in one directory
HASH_SEED_COMMANDS = [
    ["classify", "--bundle", "B", "--z", Z, "--u", "inf,1/2,0,3,4"],
    ["stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1",
     "--w", "1/10,1/10,1/10,1/10,1/10"],
    ["counts", "--bundle", "Bprime", "--z", Z, "--list"],
    ["weights", "--stratum", "U2"],
    ["chamber", "--w", W_SMALL, "--d", "1"],
    ["empty", "--bundle", "B", "--w", W_SMALL],
    ["spectrum", "--nu", NU1, "--d", "1"],
    ["elm-weight", "--w", W_SMALL, "--j", "2"],
    ["elm-spectrum", "--nu", NU1, "--d", "1", "--j", "1"],
    ["mc", "--nu", NU0, "--d", "0", "--sigma", "+++++", "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4"],
    ["charpoly", "--vals", "1,2,3,5,7"],
    ["degree-bounds", "--d", "1"],
    ["solve", "--bundle", "B", "--z", Z, "--u", "1,2,3,5,7", "--nu", NU1,
     "--params", "1,2", "--out", "triple.json"],
    ["validate", "--json", "triple.json"],
    ["limit", "--json", "triple.json", "--w", W_SMALL, "--out", "limit.json"],
    ["fiber", "--json", "limit.json", "--z", Z, "--nu", NU1, "--d", "1"],
    ["canonicalize", "--json", "limit.json", "--z", Z],
    ["tables", "--suite", "orbits"],
    ["tables", "--suite", "special-loci"],
    ["tables", "--suite", "chambers"],
    ["tables", "--suite", "fibers"],
]

# runs the commands of argv[1] through main() in one process and prints, per
# command, its exit code, its stdout and the file it wrote, as JSON
_HASH_SEED_CHILD = """
import contextlib, io, json, sys
from paramod.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    written = argv[argv.index("--out") + 1] if "--out" in argv else None
    out.append([code, buf.getvalue(), open(written).read() if written else None])
sys.stdout.write(json.dumps(out))
"""


def _run_under_hash_seed(seed, workdir):
    src = str(Path(paramod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PARAMOD_LOG", None)
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_CHILD, json.dumps(HASH_SEED_COMMANDS)],
        cwd=workdir, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHashSeedDeterminism:
    def test_identical_bytes_across_processes(self, tmp_path):
        runs = []
        for seed in (0, 1, 2):
            workdir = tmp_path / f"seed{seed}"
            workdir.mkdir()
            runs.append(_run_under_hash_seed(seed, workdir))
        assert len(runs[0]) == len(HASH_SEED_COMMANDS)
        for argv, (code, stdout, written) in zip(HASH_SEED_COMMANDS, runs[0]):
            assert code == 0 and (stdout or written), argv
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


_NUMERAL = re.compile(r"-?\d+(/\d+)?")
_HUGE = "7" * 5000


def _argv_mutations(argv):
    """Each option value of ``argv`` with its last list element dropped, and
    with its first numeral replaced by a zero denominator and by 5,000-digit
    numerals."""
    for k, arg in enumerate(argv):
        flag, eq, value = arg.partition("=") if arg.startswith("--") else ("", "", arg)
        if k == 0 or (arg.startswith("--") and not eq):
            continue
        prefix = flag + eq
        sep = ";" if ";" in value else ","
        parts = value.split(sep)
        variants = [sep.join(parts[:-1])] if len(parts) > 1 else []
        m = _NUMERAL.search(value)
        if m:
            for numeral in ("1/0", _HUGE, "1/" + _HUGE):
                variants.append(value[: m.start()] + numeral + value[m.end():])
        for v in variants:
            yield argv[:k] + [prefix + v] + argv[k + 1 :]


# JSON values of every type; a key gets each whose type differs from its own
_WRONG_TYPES = [5, 1.5, True, None, "x", [], {}]


def _json_mutations(obj, path=()):
    """``(path, value, codes)``: every key of ``obj`` with a value of a wrong
    JSON type, a list with its last element dropped or a list replaced by a
    string of as many characters, which must exit 2, and a string with a zero
    denominator or a 5,000-digit numeral or an integer out of the range of
    marked point indices, which may exit 2 or 3."""
    if path:
        yield from ((path, w, (2,)) for w in _WRONG_TYPES if type(w) is not type(obj))
        if isinstance(obj, list):
            yield path, "1" * len(obj), (2,)
        if isinstance(obj, list) and obj:
            yield path, obj[:-1], (2,)
        if isinstance(obj, str):
            yield from ((path, v, (2, 3)) for v in ("1/0", _HUGE))
        if type(obj) is int:
            yield from ((path, v, (2, 3)) for v in (0, 9))
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        # "zeros" is written for the reader and not read back
        if key != "zeros":
            yield from _json_mutations(value, path + (key,))


def _with_value(obj, path, value):
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


class TestExitCodes:
    """Malformed input exits 2 and a failed precondition 3, never 4 (an
    invariant violation) or 0, for every subcommand; a JSON value of the
    wrong type, a truncated list or a string in place of a list is malformed
    and exits exactly 2."""

    def test_malformed_inputs_exit_2_or_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in HASH_SEED_COMMANDS:
            assert run(capsys, *argv)[0] == 0, argv
        exceptional = {"component": "F1", "chart": "bottom", "theta": ["0", "-9/2", "1"],
                       "flagChoice": {"1": "lower"}}
        (tmp_path / "exceptional.json").write_text(json.dumps(exceptional))
        _, out = run(capsys, "canonicalize", "--json", "exceptional.json", "--z", Z)
        payloads = [
            ("triple", json.loads((tmp_path / "triple.json").read_text())["triple"],
             [["validate"], ["limit", "--w", W_SMALL]]),
            ("point", json.loads((tmp_path / "limit.json").read_text())["point"],
             [["fiber", "--z", Z, "--nu", NU1, "--d", "1"], ["canonicalize", "--z", Z]]),
            ("point", json.loads(out)["point"],
             [["fiber", "--z", Z, "--nu", NU1, "--d", "1"], ["canonicalize", "--z", Z]]),
        ]
        assert "exceptional_at" in payloads[2][1]
        failures = []
        n_argv = n_json = 0
        for argv in HASH_SEED_COMMANDS:
            for bad in _argv_mutations(argv):
                n_argv += 1
                code, _ = run(capsys, *bad)
                if code not in (2, 3):
                    failures.append((code, bad[0], [a[:40] for a in bad]))
        for key, payload, commands in payloads:
            for path, value, codes in _json_mutations(payload):
                (tmp_path / "bad.json").write_text(json.dumps({key: _with_value(payload, path, value)}))
                for cmd in commands:
                    n_json += 1
                    code, _ = run(capsys, cmd[0], "--json", "bad.json", *cmd[1:])
                    if code not in codes:
                        failures.append((code, cmd[0], path, repr(value)[:40]))
        assert not failures, failures
        assert n_argv > 100 and n_json > 1000

    def test_contradictory_fixed_points(self, capsys, tmp_path, monkeypatch):
        # both chart data on one point, or a tangent on a line point, is
        # malformed (2); a flag choice where theta does not vanish contradicts
        # strong parabolicity (3)
        monkeypatch.chdir(tmp_path)
        cases = [
            ({"component": "F1", "chart": "bottom", "exceptional_at": 2, "tangent": "7/2",
              "theta": ["1", "1", "1"]}, 2),
            ({"component": "F1", "chart": "top", "theta": ["1", "1", "1"], "tangent": "7/2"}, 2),
            ({"component": "F1", "chart": "bottom", "theta": ["1", "1", "0"],
              "flagChoice": {"2": "upper"}}, 3),
            ({"component": "F1", "chart": "bottom", "theta": ["1", "0", "0"],
              "flagChoice": {str(k): "upper" for k in range(1, 6)}}, 3),
        ]
        for point, want in cases:
            (tmp_path / "p.json").write_text(json.dumps(point))
            for argv in (["canonicalize", "--z", Z], ["fiber", "--z", Z, "--nu", NU1, "--d", "1"]):
                code, out = run(capsys, argv[0], "--json", "p.json", *argv[1:])
                assert (code, out) == (want, ""), (point, argv[0], code, out)

    def test_limit_rejects_what_validate_rejects(self, capsys, tmp_path, monkeypatch):
        # a flag off the nu+ eigenline, and a residue whose (12) numerator
        # exceeds its degree bound: validate lists the violations, and limit
        # exits 3 with the first instead of taking a limit
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *next(a for a in HASH_SEED_COMMANDS if a[0] == "solve"))[0] == 0
        triple = json.loads((tmp_path / "triple.json").read_text())["triple"]
        for path, value in ((("structure", "u", 4), "9"), (("connection", "A", 0, 0, 1), "5")):
            (tmp_path / "bad.json").write_text(json.dumps({"triple": _with_value(triple, path, value)}))
            violations = run_json(capsys, "validate", "--json", "bad.json")["violations"]
            assert violations, path
            code = main(["limit", "--json", "bad.json", "--w", W_SMALL])
            out, err = capsys.readouterr()
            assert (code, out) == (3, ""), (path, code, out)
            assert violations[0] in err, (path, err)


class TestPipelines:
    def test_classify_weights_stability(self, capsys):
        c = run_json(capsys, "classify", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1")
        w = run_json(capsys, "weights", "--stratum", c["stratum"])
        weight_flag = ",".join(w["w"])
        s = run_json(
            capsys,
            "stability",
            "--bundle", "B",
            "--z", Z,
            "--u", "0,0,0,0,1",
            "--w", weight_flag,
        )
        assert s["stable"] is True

    def test_solve_limit_fiber(self, capsys, tmp_path):
        data = run_json(
            capsys,
            "solve",
            "--bundle", "B",
            "--z", Z,
            "--u", "1,2,3,5,7",
            "--nu", NU1,
            "--params", "1,2",
        )
        assert data["dim"] == 2
        assert data["dim_before_gauge"] == 4
        assert data["dim_mod_gauge"] == 2
        triple_file = tmp_path / "triple.json"
        triple_file.write_text(json.dumps(data["triple"]))
        v = run_json(capsys, "validate", "--json", str(triple_file))
        assert v["valid"], v

        lim = run_json(capsys, "limit", "--json", str(triple_file), "--w", W_SMALL)
        assert lim["point"]["component"] == "F1"
        point_file = tmp_path / "point.json"
        point_file.write_text(json.dumps(lim["point"]))
        fib = run_json(
            capsys, "fiber", "--json", str(point_file), "--z", Z, "--nu", NU1, "--d", "1"
        )
        assert fib["dim"] == 2

    def test_limit_with_singular_contact_rows(self, capsys, tmp_path, monkeypatch):
        # the flags u_i = z_i^2 / (z_i + 1) lie on the section (z + 1, z^2),
        # so the five (1, 2) contact rows are singular; the degenerations are
        # read off divided differences of the flags, with no contact kernel,
        # and the stdout is pinned byte for byte
        monkeypatch.chdir(tmp_path)
        walks = []
        kernel = stability.contact_kernel
        monkeypatch.setattr(stability, "contact_kernel", lambda *a: walks.append(a) or kernel(*a))
        solve = ["solve", "--bundle", "B", "--z", Z, "--u", "0,1/2,4/3,9/4,16/5", "--nu", NU1]
        assert run(capsys, *solve, "--params", "1,2", "--out", "triple.json") == (0, "")
        code, out = run(capsys, "limit", "--json", "triple.json", "--w", W_SMALL)
        assert code == 0 and len(walks) == 0
        assert out == (
            '{"candidates": [{"margin": "32663/72072", "name": "E0", "stable": true}, '
            '{"margin": "-93463/72072", "name": "E1", "stable": false}], '
            '"higgs": {"bundle": "B", "structure": {"bundle": "B", "u": ["0", "0", "0", "0", "0"]}, '
            '"theta": ["276/5", "-381/5", "93/5"]}, '
            '"point": {"chart": "top", "component": "F1", "flagChoice": {}, '
            '"theta": ["1", "-127/92", "31/92"], "zeros": null}}\n'
        )

    def test_canonicalize_roundtrip(self, capsys, tmp_path):
        point = {
            "component": "F1",
            "chart": "bottom",
            "theta": ["0", "-9/2", "1"],
            "flagChoice": {"1": "lower"},
        }
        f = tmp_path / "p.json"
        f.write_text(json.dumps(point))
        data = run_json(capsys, "canonicalize", "--json", str(f), "--z", Z)
        assert data["point"]["chart"] == "top"
        assert "exceptional_at" in data["point"]
        f.write_text(json.dumps(data["point"]))
        again = run_json(capsys, "canonicalize", "--json", str(f), "--z", Z)
        assert again["point"] == data["point"]

    def test_canonicalize_evaluates_theta_once(self, capsys, tmp_path, monkeypatch):
        # a line point is canonicalized once: one search for theta's marked
        # zeros, where checking the removed locus canonicalized it a second
        # time, and no evaluation of theta
        calls, searches = [], []
        real, real_zeros = Poly.__call__, higgslimit._zeros_at_marked_points

        def call(poly, x):
            calls.append(x)
            return real(poly, x)

        monkeypatch.setattr(Poly, "__call__", call)
        monkeypatch.setattr(
            higgslimit, "_zeros_at_marked_points", lambda c, cfg: searches.append(c) or real_zeros(c, cfg)
        )
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"component": "F1", "chart": "top", "theta": ["1", "1", "1"]}))
        code, out = run(capsys, "canonicalize", "--json", str(f), "--z", Z)
        assert (code, len(searches), len(calls)) == (0, 1, 0), calls
        assert out == (
            '{"in_removed_locus": false, "point": {"chart": "top", "component": "F1", '
            '"flagChoice": {}, "theta": ["1", "1", "1"], "zeros": null}}\n'
        )


class TestSpectrumCli:
    def test_predicates(self, capsys):
        data = run_json(capsys, "spectrum", "--nu", NU1, "--d", "1")
        assert data["non_special"] is True

    def test_elm(self, capsys):
        data = run_json(capsys, "elm-spectrum", "--nu", NU1, "--d", "1", "--j", "1")
        assert data["d"] == 0
        assert data["nu"][0] == ["3/4", "1/4"]

    def test_mc(self, capsys):
        nu0 = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4"
        data = run_json(
            capsys,
            "mc",
            "--nu", nu0,
            "--d", "0",
            "--sigma", "+++++",
            "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4",
        )
        assert data["rank"] == 3
        assert data["d"] == 0
        assert data["triples"][0] == ["-1/4", "-1/4", "1/2"]

    def test_charpoly(self, capsys):
        data = run_json(capsys, "charpoly", "--vals", "2,2,2,2,2")
        assert data == {"value": "48"}


class TestTables:
    def test_special_loci_counts(self, capsys):
        _, out = run(capsys, "tables", "--suite", "special-loci")
        lines = out.strip().split("\n")
        assert lines[0] == "kind,label,coordinates"
        kinds = [ln.split(",")[0] for ln in lines[1:]]
        assert kinds.count("S1") == 10
        assert kinds.count("S2") == 5
        assert kinds.count("line") == 5

    def test_orbits_table(self, capsys):
        _, out = run(capsys, "tables", "--suite", "orbits")
        lines = out.strip().split("\n")
        assert len(lines) == 34  # header + 33 orbits

    def test_chambers_table(self, capsys):
        _, out = run(capsys, "tables", "--suite", "chambers")
        assert "1/5,1/3" in out and "1/3,3/5" in out and "2/3,4/5" in out

    def test_fibers_table(self, capsys):
        _, out = run(capsys, "tables", "--suite", "fibers")
        lines = out.strip().split("\n")
        assert lines[0] == "case,component,dim"
        for ln in lines[1:]:
            assert ln.endswith(",2")

    def test_unknown_suite_rejected(self, capsys):
        code, _ = run(capsys, "tables", "--suite", "bogus")
        assert code == 2


def _child(code, *args, cwd, **env):
    """Run ``python -c code *args`` in ``cwd`` with the source tree on the
    path, PARAMOD_LOG unset and the variables ``env`` set; returns the
    finished process."""
    src = str(Path(paramod.__file__).resolve().parents[1])
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(p for p in (src, full.get("PYTHONPATH")) if p)
    full.pop("PARAMOD_LOG", None)
    full.update(env)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=full,
                          capture_output=True, text=True, timeout=300)


_CLI_CHILD = "import sys\nfrom paramod.cli import main\nsys.exit(main(sys.argv[1:]))"


class TestLogging:
    """PARAMOD_LOG adds the traceback of a failure on stderr at level debug
    and changes nothing else; any other value prints no more than unset."""

    BAD = ["classify", "--bundle", "B", "--z", "0,0,2,3,4", "--u", "1,0,0,0,0"]

    def test_debug_adds_the_traceback(self, tmp_path):
        quiet = _child(_CLI_CHILD, *self.BAD, cwd=tmp_path)
        assert quiet.returncode == 2
        assert quiet.stderr.startswith("error: ") and quiet.stderr.count("\n") == 1
        for level in ("debug", "DeBuG"):
            loud = _child(_CLI_CHILD, *self.BAD, cwd=tmp_path, PARAMOD_LOG=level)
            assert loud.returncode == 2
            assert loud.stdout == quiet.stdout
            assert loud.stderr.startswith("DEBUG:paramod:schema failure\nTraceback (most recent call last):\n")
            assert loud.stderr.endswith("\n" + quiet.stderr)

    def test_other_levels_print_nothing_more(self, tmp_path):
        # BASIC_FORMAT is an attribute of the logging module, not a level
        good = ["classify", "--bundle", "B", "--z", Z, "--u", "1,0,0,0,0"]
        quiet = [_child(_CLI_CHILD, *argv, cwd=tmp_path) for argv in (good, self.BAD)]
        for level in ("basic_format", "info", "Critical", "notalevel", ""):
            for argv, expected in zip((good, self.BAD), quiet):
                proc = _child(_CLI_CHILD, *argv, cwd=tmp_path, PARAMOD_LOG=level)
                assert (proc.returncode, proc.stdout, proc.stderr) == (
                    expected.returncode, expected.stdout, expected.stderr), level


class TestPreconditionErrors:
    def test_each_exits_3_through_main(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps(
            {"component": "F1", "chart": "bottom", "theta": ["0", "-9/2", "1"],
             "flagChoice": {"1": "lower"}}))
        cases = [
            (OnWallError, ["stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1",
                           "--w", "1/5,1/5,1/5,1/5,1/5"]),
            (SpectrumError, ["spectrum", "--nu", NU1, "--d", "0"]),
            (HiggsError, ["fiber", "--json", "p.json", "--z", Z, "--nu", NU0, "--d", "0"]),
        ]
        for cls, argv in cases:
            assert issubclass(cls, PreconditionError) and issubclass(cls, ValueError)
            args = build_parser().parse_args(argv)
            with pytest.raises(cls):
                args.fn(args)
            assert run(capsys, *argv)[0] == 3, argv


# modules that a README command must not import: the module layers it does not run
_NOT_IMPORTED = {
    "classify": {"stability", "spectra", "connection", "higgslimit"},
    "counts": {"stability", "spectra", "connection", "higgslimit"},
    "tables-orbits": {"stability", "spectra", "connection", "higgslimit"},
    "stability": {"connection", "higgslimit"},
    "weights": {"connection", "higgslimit"},
    "tables-chambers": {"connection", "higgslimit"},
}

_MODULES_CHILD = """
import contextlib, io, json, sys
from paramod.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# in a fresh process: importing the package imports no submodule, and every
# exported name is the object of the module that defines it
_SURFACE_CHILD = """
import sys
import paramod
assert not [m for m in sys.modules if m.startswith("paramod.")], sorted(sys.modules)
from paramod import stability
assert stability is sys.modules["paramod.stability"]
assert set(paramod.__all__) <= set(dir(paramod))
assert not hasattr(paramod, "no_such_name")
for name in paramod.__all__:
    ns = {}
    exec(f"from paramod import {name}", ns)
    obj = ns[name]
    home = sys.modules["paramod"] if name in ("KERNEL_BACKEND", "__version__") else sys.modules[obj.__module__]
    assert vars(home)[name] is obj, name
"""

# the public names of the package: a name joins or leaves ``__all__`` only
# with this list
_ALL = """
B BPRIME BundleSplitType FixedLocusPoint FlatTriple INF KERNEL_BACKEND LogConnection MCBranch
MarkedConfiguration Mat ParabolicStructure Poly ProjectivePoint Scalar SpectrumRank2 StratumId
StronglyParabolicHiggs WeightVector __version__ act chamber_classify character_poly classify
cstar_limit degree_bounds elm_spectrum elm_triple elm_weight
fiber_dimension fixed_component fixedpoint_canonicalize gauge_transform higgs_is_stable
interpolate is_decomposable is_simple is_stable mc_spectrum no_stable_structure orbit_equal
quotient_coords s_value sc solve_connection_space special_loci stabilizing_weight
theta_from_connection validate_triple weight_is_kostov_generic
""".split()

# in a fresh process with every paramod module imported, as the benchmark's
# traced run has them: ``Tracer.install`` finds every name of ``TRACED``, a
# function on its module and a method in its class's ``__dict__``, and wraps
# it; a missing one raises there
_TRACER_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import paramod.cli, paramod.connection, paramod.exactnum, paramod.higgslimit
import paramod.parastruct, paramod.spectra, paramod.stability
from tracer import TRACED, Tracer
tracer = Tracer()
tracer.install()
for mod_name, path in TRACED:
    owner = sys.modules[f"paramod.{mod_name}"]
    *cls, attr = path.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert hasattr(vars(owner)[attr], "__wrapped__"), path
tracer.uninstall()
"""


class TestImports:
    def test_commands_import_only_what_they_run(self, tmp_path):
        for name, argv in README_EXAMPLES:
            proc = _child(_MODULES_CHILD, *argv, cwd=tmp_path)
            code, modules = json.loads(proc.stdout)
            assert code == 0, (name, proc.stderr)
            assert "logging" not in modules, name
            assert "dataclasses" not in modules, name
            loaded = {m.removeprefix("paramod.") for m in modules if m.startswith("paramod.")}
            assert not loaded & _NOT_IMPORTED.get(name, set()), (name, sorted(loaded))

    def test_package_exports(self, tmp_path):
        proc = _child(_SURFACE_CHILD, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert paramod.__all__ == sorted(_ALL)

    def test_benchmark_traced_names_resolve(self, tmp_path):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        proc = _child(_TRACER_CHILD, str(perfbench), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
