import json
import os
import subprocess
import sys
from pathlib import Path

import paramod
from paramod.cli import main

Z = "0,1,2,3,4"
NU1 = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-5/4"
W_SMALL = "1/8,1/9,1/7,1/11,1/13"


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
            # marked point indices outside 1..5 and a malformed sign pattern
            ("elm-weight", "--w", W_SMALL, "--j", "0"),
            ("elm-weight", "--w", W_SMALL, "--j", "9"),
            ("elm-spectrum", "--nu", NU1, "--d", "1", "--j", "0"),
            ("mc", "--nu", NU1, "--d", "1", "--sigma", "++",
             "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4"),
        ):
            code, _ = run(capsys, *argv)
            assert code == 2, argv


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


# each command with the files it writes, run in order in one directory
HASH_SEED_COMMANDS = [
    (["classify", "--bundle", "B", "--z", Z, "--u", "inf,1/2,0,3,4"], None),
    (["stability", "--bundle", "B", "--z", Z, "--u", "0,0,0,0,1",
      "--w", "1/10,1/10,1/10,1/10,1/10"], None),
    (["weights", "--stratum", "U2"], None),
    (["tables", "--suite", "orbits"], None),
    (["solve", "--bundle", "B", "--z", Z, "--u", "1,2,3,5,7", "--nu", NU1,
      "--params", "1,2", "--out", "triple.json"], "triple.json"),
    (["limit", "--json", "triple.json", "--w", W_SMALL, "--out", "limit.json"], "limit.json"),
    (["fiber", "--json", "limit.json", "--z", Z, "--nu", NU1, "--d", "1"], None),
]


def _run_under_hash_seed(seed, workdir):
    src = str(Path(paramod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = []
    for argv, written in HASH_SEED_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "paramod.cli", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        out.append((proc.stdout, (workdir / written).read_bytes() if written else None))
    return out


class TestHashSeedDeterminism:
    def test_identical_bytes_across_processes(self, tmp_path):
        runs = []
        for seed in (0, 1, 2):
            workdir = tmp_path / f"seed{seed}"
            workdir.mkdir()
            runs.append(_run_under_hash_seed(seed, workdir))
        assert all(stdout or written for stdout, written in runs[0])
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


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
