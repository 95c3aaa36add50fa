"""The benchmark workloads: seeded input generation, one operation through
paramod's public API, and the independent check of its canonical output.

Every paramod function is looked up through its module at call time
(``stability.is_stable``, not a name bound at import), so the traced run sees
the wrappers that ``tracer`` installs.  Inputs are generated as plain
``Fraction`` data first; the paramod objects are built from that data during
set-up and the ``oracle`` checks the outputs against the same data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import oracle

BLOCK = 64  # operations per reference hash; pools are whole blocks
WARMUP = 20  # untimed operations before the timed loop


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Item:
    """One operation's input: its census class, the rational data the oracle
    reads and the paramod objects the operation consumes."""

    cls: str
    data: dict
    args: dict = field(default_factory=dict)


def _rng(*key) -> random.Random:
    # str seeds go through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random("/".join(str(k) for k in key))


def _rat(rng, lo=-40, hi=40, max_den=8) -> Fraction:
    return Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, max_den + 1))


def _config(rng):
    while True:
        z = [_rat(rng, -12, 12, 4) for _ in range(oracle.NPOINTS)]
        if len(set(z)) == oracle.NPOINTS:
            return z


def _weight(rng, total_below=None):
    while True:
        dens = [rng.randrange(3, 17) for _ in range(oracle.NPOINTS)]
        if total_below is None:
            w = [Fraction(rng.randrange(1, d), d) for d in dens]
        else:
            w = [Fraction(rng.randrange(1, max(2, d // 6) + 1), d + 4) for d in dens]
            if not sum(w) < total_below:
                continue
        if oracle.weight_non_special(w):
            return w


def _spectrum(rng, d=1):
    while True:
        nu = [(_rat(rng, -6, 6, 9), _rat(rng, -6, 6, 9)) for _ in range(oracle.NPOINTS)]
        p5 = nu[4][0]
        nu[4] = (p5, -d - sum(p + m for p, m in nu[:4]) - p5)
        if oracle.spectrum_non_special(nu, d):
            return nu


def _indecomposable_flags(rng, z, inf):
    """Random B flags, infinite at ``inf``, whose finite part is not collinear
    (so the structure is indecomposable)."""
    fin = [i for i in range(oracle.NPOINTS) if i not in inf]
    while True:
        u = [None if i in inf else _rat(rng) for i in range(oracle.NPOINTS)]
        if not oracle.collinear(z, u, fin):
            return u


class Workload:
    """Base: a pool of ``pool`` inputs per seed.  The timed loop never runs an
    in-process input twice, so each pool holds 3.4 to 4.8 times what one 15 s
    run uses on an unloaded 2-vCPU x86-64 VM: a run stops at the end of the
    pool only once paramod is more than three times as fast."""

    name = ""
    pool = 0  # inputs per seed, a multiple of BLOCK
    trace_ops = 0  # operations in one traced pass, a multiple of BLOCK
    in_process = True

    def __init__(self, root):
        self.root = root
        import paramod.cli
        import paramod.connection
        import paramod.exactnum
        import paramod.higgslimit
        import paramod.parastruct
        import paramod.spectra
        import paramod.stability

        self.pm = paramod

    # -- building paramod objects from rational data ------------------------
    def sc(self, x: Fraction):
        return self.pm.exactnum.Scalar.rational(x.numerator, x.denominator)

    def cfg(self, z):
        return self.pm.parastruct.MarkedConfiguration([self.sc(x) for x in z])

    def structure(self, bundle, u):
        ps, ex = self.pm.parastruct, self.pm.exactnum
        flags = [ex.INF if x is None else ex.ProjectivePoint.finite(self.sc(x)) for x in u]
        return ps.ParabolicStructure(ps.B if bundle == "B" else ps.BPRIME, flags)

    def weight(self, w):
        return self.pm.stability.WeightVector([self.sc(x) for x in w])

    def spectrum(self, nu, d=1):
        return self.pm.spectra.SpectrumRank2([(self.sc(p), self.sc(m)) for p, m in nu], d)

    # -- the interface the runner uses --------------------------------------
    def generate(self, seed):
        """The seed's pool of inputs, one at a time."""
        return (self.item(_rng(self.name, seed, i), i) for i in range(self.pool))

    def warmup(self) -> list[Item]:
        """Inputs from a stream of their own, run untimed before the loop."""
        return [self.item(_rng(self.name, "warmup", i), i) for i in range(WARMUP)]

    def item(self, rng, i) -> Item:
        raise NotImplementedError

    def run(self, item: Item) -> str:
        raise NotImplementedError

    def check(self, item: Item, out: str) -> list[str]:
        raise NotImplementedError

    def close(self):
        pass


class StabilityRandom(Workload):
    """Full ``is_stable`` decisions, each on a fresh configuration, structure
    and non-special weight, in equal shares of five input classes."""

    name = "stability-random"
    classes = ("generic", "one-inf", "two-inf", "decomposable", "bprime")
    pool = 12288
    trace_ops = 320

    def item(self, rng, i):
        cls = self.classes[i % len(self.classes)]
        z = _config(rng)
        if cls == "decomposable":
            a, b = _rat(rng), _rat(rng, -10, 10, 4)
            bundle, u = "B", [a + b * x for x in z]
        elif cls == "bprime":
            bundle, u = "Bprime", [_rat(rng) for _ in z]
        else:
            n_inf = {"generic": 0, "one-inf": 1, "two-inf": 2}[cls]
            bundle, u = "B", _indecomposable_flags(rng, z, set(rng.sample(range(5), n_inf)))
        w = _weight(rng)
        data = {"bundle": bundle, "z": z, "u": u, "w": w}
        return Item(cls, data, {
            "cfg": self.cfg(z), "s": self.structure(bundle, u), "w": self.weight(w),
        })

    def run(self, item):
        st = self.pm.stability
        a = item.args
        try:
            return dumps(st.is_stable(a["s"], a["cfg"], a["w"]).to_json())
        except st.OnWallError:
            return "on-wall"

    def check(self, item, out):
        if out == "on-wall":  # a recorded outcome, not a failure
            return []
        d = item.data
        return oracle.check_report(json.loads(out), d["bundle"], d["z"], d["u"], d["w"])


# the five emptiness weights of acceptance criterion 04, each with its bundle
EMPTINESS = (
    ("B", ["1/10"] * 5),
    ("B", ["1/2", "9/10", "9/10", "9/10", "9/10"]),
    ("B", ["9/10", "9/10", "1/10", "1/10", "1/10"]),
    ("Bprime", ["1/4"] * 5),
    ("Bprime", ["1/2", "9/10", "9/10", "9/10", "9/10"]),
)
Z_FIXED = [Fraction(k) for k in range(5)]
QUICK_INF = (0, 0, 0, 1, 1, 2, 3)  # infinite flags of the quick rejections, as in the suite
UIJ_PAIRS = list(combinations(range(5), 2))


class ChamberSweep(Workload):
    """Acceptance criterion 04 on ``z = 0..4``: indecomposable U2, Ui and Uij
    structures go through classify, stabilizing_weight and a full decision;
    random B and B' structures are rejected with ``quick=True`` at the five
    emptiness weights (ten per period of 13)."""

    name = "chamber-sweep"
    period = 13
    pool = 32768
    trace_ops = 1280

    def __init__(self, root):
        super().__init__(root)
        self.fixed_cfg = self.cfg(Z_FIXED)
        # one shared object per weight, as in the acceptance suite
        self.empties = [
            (bundle, [Fraction(x) for x in w], self.weight([Fraction(x) for x in w]))
            for bundle, w in EMPTINESS
        ]

    def item(self, rng, i):
        k = i % self.period
        z = Z_FIXED
        if k < 3:
            cls = ("generic", "one-inf", "two-inf")[k]
            if cls == "generic":
                inf = ()
            elif cls == "one-inf":
                inf = (rng.randrange(5),)
            else:
                inf = rng.choice(UIJ_PAIRS)
            u = _indecomposable_flags(rng, z, set(inf))
            return Item(cls, {"inf": inf, "u": u}, {"s": self.structure("B", u)})
        # the quick path's cost is set by the weight and the number of infinite
        # flags, so both cycle (35 combinations, the suite's shares of infinite
        # flags) instead of being drawn: the class mix is the same for every seed
        q = i // self.period * 10 + k - 3
        bundle, w, wv = self.empties[q % 5]
        inf = set(rng.sample(range(5), QUICK_INF[q % len(QUICK_INF)]))
        u = [None if j in inf else _rat(rng) for j in range(5)]
        data = {"bundle": bundle, "u": u, "w": w}
        return Item("quick", data, {"s": self.structure(bundle, u), "w": wv})

    def run(self, item):
        ps, st = self.pm.parastruct, self.pm.stability
        a, cfg = item.args, self.fixed_cfg
        if item.cls == "quick":
            return dumps(st.is_stable(a["s"], cfg, a["w"], quick=True).to_json())
        stratum = ps.classify(a["s"], cfg)
        w = st.stabilizing_weight(stratum)
        report = st.is_stable(a["s"], cfg, w)
        return dumps({
            "stratum": stratum.label(), "coords": stratum.coords_str(),
            "w": [str(x) for x in w.w], "report": report.to_json(),
        })

    def check(self, item, out):
        got = json.loads(out)
        d = item.data
        if item.cls == "quick":
            worst = got["worst"]
            m = Fraction(worst["margin"])
            problems = []
            if got["stable"] or m >= 0:
                problems.append("a structure is stable at an emptiness weight")
            if m != oracle.margin(worst["deg"], [i - 1 for i in worst["contact"]], d["w"]):
                problems.append("margin is not that of the reported witness")
            return problems
        inf = d["inf"]
        label = {0: "U2", 1: "U({})", 2: "U''({},{})"}[len(inf)].format(*(i + 1 for i in inf))
        w = [Fraction(4 if len(inf) == 0 else 7, 15)] * 5
        if len(inf) == 2:
            w = [Fraction(11, 15)] * 5
            w[inf[1]] = Fraction(4, 15)
        problems = []
        if got["stratum"] != label:
            problems.append(f"stratum {got['stratum']}, expected {label}")
        if [Fraction(x) for x in got["w"]] != w:
            problems.append("not the stabilizing chamber centre of the stratum")
        if (got["coords"] is None) != (len(inf) == 2):
            problems.append("quotient coordinates missing or unexpected")
        problems += oracle.check_report(got["report"], "B", Z_FIXED, d["u"], w)
        if not got["report"]["stable"]:
            problems.append("the stabilizing weight does not stabilize")
        return problems


class Pipeline(Workload):
    """Acceptance criterion 09 on ``z = 0..4``: solve the connection space,
    pick a triple, validate it, take its C*-limit and the fiber dimension; every
    7th operation also takes the limit of a gauge transform and an elementary
    transformation."""

    name = "pipeline"
    pool = 8960  # 64 cycles of 140: the class pattern (4 x 5) and the extra-work step 7
    trace_ops = 640

    def __init__(self, root):
        super().__init__(root)
        self.fixed_cfg = self.cfg(Z_FIXED)

    def item(self, rng, i):
        if i % 4 == 3:
            cls = "bprime"
            bundle, u = "Bprime", [x**4 for x in Z_FIXED]
        elif i % 5 == 1:
            cls = "one-inf"
            bundle, u = "B", _indecomposable_flags(rng, Z_FIXED, {(i // 5) % 5})
        else:
            cls = "generic"
            bundle, u = "B", _indecomposable_flags(rng, Z_FIXED, set())
        nu = _spectrum(rng)
        params = [_rat(rng, -4, 4, 2) for _ in range(2)]
        w = _weight(rng, total_below=1)
        data = {"bundle": bundle, "u": u, "nu": nu, "w": w, "extra": i % 7 == 0}
        args = {
            "s": self.structure(bundle, u), "nu": self.spectrum(nu), "w": self.weight(w),
            "params": [self.sc(x) for x in params],
        }
        if data["extra"]:
            gauge = [Fraction(2)] + [_rat(rng, -3, 3, 2) for _ in range(2 if bundle == "B" else 4)]
            data["j"] = rng.randrange(5)
            args["gauge"] = [self.sc(x) for x in gauge]
        return Item(cls, data, args)

    def run(self, item):
        cn, hl = self.pm.connection, self.pm.higgslimit
        a, cfg = item.args, self.fixed_cfg
        space = cn.solve_connection_space(a["s"], cfg, a["nu"])
        if space is None:
            return dumps({"empty": True})
        t = space.triple_at(a["params"])
        valid, _ = cn.validate_triple(t)
        res = hl.cstar_limit(t, a["w"])
        out = {
            "dim": space.dim,
            "valid": valid,
            "point": res.point.to_json(cfg),
            "candidates": [[c.name, str(c.margin), c.stable] for c in res.candidates],
            "fiber": hl.fiber_dimension(res.point, cfg, a["nu"]),
        }
        if item.data["extra"]:
            moved = cn.gauge_transform(t, a["gauge"])
            out["gauge_point"] = hl.cstar_limit(moved, a["w"]).point.to_json(cfg)
            out["elm"] = cn.elm_triple(t, item.data["j"]).to_json()
        return dumps(out)

    def check(self, item, out):
        got = json.loads(out)
        d = item.data
        if got.get("empty"):
            return ["empty connection space on an indecomposable structure"]
        problems = []
        if got["dim"] != 2:
            problems.append(f"connection space of dimension {got['dim']}, expected 2")
        if not got["valid"]:
            problems.append("the solved triple does not validate")
        if sum(1 for c in got["candidates"] if c[2]) != 1:
            problems.append("not exactly one stable limit candidate")
        if got["point"]["component"] != ("F0" if d["bundle"] == "Bprime" else "F1"):
            problems.append("limit on the wrong fixed-locus component")
        if got["fiber"] != 2:
            problems.append(f"fiber of dimension {got['fiber']}, expected 2")
        if d["extra"]:
            if got["gauge_point"] != got["point"]:
                problems.append("the limit is not constant on the gauge orbit")
            j = d["j"]
            nu = list(d["nu"])
            nu[j] = (1 + nu[j][1], nu[j][0])
            spec = got["elm"]["spectrum"]
            if spec["d"] != 0 or [[Fraction(p), Fraction(m)] for p, m in spec["nu"]] != [list(x) for x in nu]:
                problems.append("elementary transformation has the wrong spectrum")
        return problems


Z_ARG = "0,1,2,3,4"
NU_ARG = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-5/4"
NU0_ARG = "1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4;1/4,-1/4"
# the README invocations: (name, argv, file the command writes or None)
CLI_SINGLES = [
    ("classify", ["classify", "--bundle", "B", "--z", Z_ARG, "--u", "1,0,0,0,0"], None),
    ("stability", ["stability", "--bundle", "B", "--z", Z_ARG, "--u", "0,0,0,0,1",
                   "--w", "1/10,1/10,1/10,1/10,1/10"], None),
    ("counts", ["counts", "--bundle", "Bprime", "--z", Z_ARG], None),
    ("weights", ["weights", "--stratum", "U2"], None),
    ("spectrum", ["spectrum", "--nu", NU_ARG, "--d", "1"], None),
    ("mc", ["mc", "--nu", NU0_ARG, "--d", "0", "--sigma", "+++++",
            "--beta-v=-1/4,-1/4,-1/4,-1/4,-1/4"], None),
    ("tables-orbits", ["tables", "--suite", "orbits"], None),
    ("tables-special-loci", ["tables", "--suite", "special-loci"], None),
    ("tables-chambers", ["tables", "--suite", "chambers"], None),
    ("tables-fibers", ["tables", "--suite", "fibers"], None),
]
CLI_CHAIN = [
    ("solve", ["solve", "--bundle", "B", "--z", Z_ARG, "--u", "1,2,3,5,7", "--nu", NU_ARG,
               "--params", "1,2", "--out", "triple.json"], "triple.json"),
    ("limit", ["limit", "--json", "triple.json", "--w", "1/8,1/9,1/7,1/11,1/13",
               "--out", "limit.json"], "limit.json"),
    ("fiber", ["fiber", "--json", "limit.json", "--z", Z_ARG, "--nu", NU_ARG, "--d", "1"], None),
]


class Cli(Workload):
    """Sequential ``python -m paramod.cli`` processes, one at a time, over the
    README invocations; the seed shuffles their order, keeping the
    solve -> limit -> fiber chain together and in order."""

    name = "cli"
    in_process = False
    pool = len(CLI_SINGLES) + len(CLI_CHAIN)
    trace_ops = 2 * pool

    def __init__(self, root):
        super().__init__(root)
        self.workdir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PARAMOD_LOG", None)
        self.peak_rss_kb = 0

    def generate(self, seed):
        units = [[c] for c in CLI_SINGLES] + [CLI_CHAIN]
        _rng(self.name, seed).shuffle(units)
        return [Item(name, {"argv": argv, "out": out}) for unit in units for name, argv, out in unit]

    def warmup(self):
        return [Item(name, {"argv": argv, "out": out}) for name, argv, out in CLI_SINGLES[:2]]

    def _result(self, item, code, stdout: bytes) -> str:
        text = f"exit {code}\n" + stdout.decode()
        if item.data["out"]:
            with open(os.path.join(self.workdir, item.data["out"]), encoding="utf-8") as fh:
                text += fh.read()
        return text

    def run(self, item):
        with subprocess.Popen(
            [sys.executable, "-m", "paramod.cli", *item.data["argv"]],
            cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            stdout = proc.stdout.read()
            # reap the child here to read its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return self._result(item, proc.returncode, stdout)

    def run_in_process(self, item):
        """The same command through ``paramod.cli.main`` in this process."""
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.pm.cli.main(list(item.data["argv"]))
        finally:
            os.chdir(cwd)
        return self._result(item, code, buf.getvalue().encode())

    def check(self, item, out):
        # the outputs do not depend on the seed: the reference covers them all
        if not out.startswith("exit 0\n"):
            return [out.splitlines()[0]]
        return []

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (StabilityRandom, ChamberSweep, Pipeline, Cli)}
