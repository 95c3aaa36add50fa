"""Batch command-line front end: JSON in, JSON (or CSV) out, deterministic.

Exit codes: 0 success, 2 malformed input, 3 on-wall or precondition failure,
4 internal invariant violation.  Set PARAMOD_LOG=debug for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys

from .exactnum import ExactError, PreconditionError, ProjectivePoint, Scalar, sc

EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

# ExactError, StratumError and ConnectionError are ValueErrors; the subclass
# PreconditionError is caught first and exits 3
SCHEMA_ERRORS = (KeyError, ValueError)

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

# Each command imports the modules it runs, when it runs: a process that
# classifies a structure does not compile the connection and limit layers.


def _parse_cfg(args):
    from .parastruct import MarkedConfiguration

    return MarkedConfiguration([Scalar.parse(t) for t in args.z.split(",")])


def _parse_structure(args):
    from .parastruct import BundleSplitType, ParabolicStructure

    bundle = BundleSplitType.parse(args.bundle)
    return ParabolicStructure(
        bundle, [ProjectivePoint.parse(t) for t in args.u.split(",")]
    )


def _parse_weight(text: str):
    from .stability import WeightVector

    return WeightVector([Scalar.parse(t) for t in text.split(",")])


def _parse_spectrum(text: str, d: int):
    from .spectra import SpectrumRank2

    pairs = []
    for chunk in text.split(";"):
        p, m = chunk.split(",")
        pairs.append((Scalar.parse(p), Scalar.parse(m)))
    return SpectrumRank2(pairs, d)


def _load_json(args, key, decode):
    """Decode the ``--json`` payload, a JSON object, or its ``key`` member
    when present.  A value of the wrong JSON type is malformed input: the
    type errors it raises while decoding become ExactError."""
    with open(args.json, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ExactError(f"JSON payload must be an object, not {type(data).__name__}")
    try:
        return decode(data.get(key, data))
    except (TypeError, AttributeError, IndexError) as e:
        raise ExactError(f"malformed JSON payload: {e}") from e


def _emit(args, payload):
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args):
    from .parastruct import classify

    cfg = _parse_cfg(args)
    s = _parse_structure(args)
    stratum = classify(s, cfg)
    out = {"stratum": stratum.label(), "decomposable": stratum.decomposable}
    if stratum.coords is not None:
        out["coords"] = stratum.coords_str()
    return out


def cmd_stability(args):
    from .stability import is_stable

    cfg = _parse_cfg(args)
    s = _parse_structure(args)
    w = _parse_weight(args.w)
    return is_stable(s, cfg, w).to_json()


def cmd_counts(args):
    from .parastruct import BPRIME, BundleSplitType, StratumError, all_bprime_orbit_labels

    cfg = _parse_cfg(args)
    bundle = BundleSplitType.parse(args.bundle)
    if bundle == BPRIME:
        labels = sorted(set(all_bprime_orbit_labels(cfg)))
        out = {"orbits": len(labels)}
        if args.list:
            out["labels"] = labels
        return out
    raise StratumError("orbit counts are finite for B' only")


def cmd_weights(args):
    from .parastruct import stratum_from_label
    from .stability import stabilizing_weight

    if args.json:
        stratum = _load_json(args, "stratum", stratum_from_label)
    elif args.stratum is None:
        raise ExactError("weights needs --stratum or --json")
    else:
        stratum = stratum_from_label(args.stratum)
    return stabilizing_weight(stratum).to_json()


def cmd_chamber(args):
    from .stability import chamber_classify, weight_is_kostov_generic

    w = _parse_weight(args.w)
    desc = chamber_classify(w, args.d)
    out = desc.to_json()
    out["kostov_generic"] = weight_is_kostov_generic(w, args.d)
    return out


def cmd_empty(args):
    from .parastruct import BundleSplitType
    from .stability import no_stable_structure

    w = _parse_weight(args.w)
    bundle = BundleSplitType.parse(args.bundle)
    return {"no_stable_structure": no_stable_structure(w, bundle)}


def cmd_spectrum(args):
    return _parse_spectrum(args.nu, args.d).predicates()


def cmd_elm_weight(args):
    from .spectra import elm_weight

    w = _parse_weight(args.w)
    return elm_weight(w, args.j - 1).to_json()


def cmd_elm_spectrum(args):
    from .spectra import elm_spectrum

    nu = _parse_spectrum(args.nu, args.d)
    return elm_spectrum(nu, args.j - 1).to_json()


def cmd_mc(args):
    from .spectra import MCBranch, mc_spectrum

    nu = _parse_spectrum(args.nu, args.d)
    beta_v = [Scalar.parse(t) for t in args.beta_v.split(",")]
    branch = MCBranch(args.sigma, beta_v, nu)
    return mc_spectrum(nu, branch).to_json()


def cmd_charpoly(args):
    from .spectra import character_poly

    vals = [Scalar.parse(t) for t in args.vals.split(",")]
    if len(vals) != 5:
        raise ExactError("charpoly takes five values")
    return {"value": str(character_poly(*vals))}


def cmd_degree_bounds(args):
    from .connection import degree_bounds

    b = degree_bounds(args.d)
    return {
        "lo": b.lo,
        "hi": b.hi,
        "splits": [[s.d0, s.d1] for s in b.splits],
    }


def cmd_solve(args):
    from .connection import irreducibility_screen, solve_connection_space

    cfg = _parse_cfg(args)
    s = _parse_structure(args)
    nu = _parse_spectrum(args.nu, s.bundle.degree)
    space = solve_connection_space(s, cfg, nu)
    if space is None:
        return {"empty": True}
    out = {
        "empty": False,
        "dim": space.dim,
        "dim_before_gauge": space.dim_before_gauge,
        "dim_mod_gauge": space.dim_mod_gauge,
        "free_labels": ["".join(map(str, lab)) for lab in space.labels],
    }
    if args.params is not None:
        params = [Scalar.parse(t) for t in args.params.split(",")] if args.params else []
        triple = space.triple_at(params)
        out["triple"] = triple.to_json()
        out["irreducibility"] = irreducibility_screen(triple)[0]
    return out


def _triple_from_json(data):
    from .connection import FlatTriple, LogConnection
    from .parastruct import MarkedConfiguration, ParabolicStructure
    from .spectra import SpectrumRank2

    return FlatTriple(
        ParabolicStructure.from_json(data["structure"]),
        SpectrumRank2.from_json(data["spectrum"]),
        LogConnection.from_json(data["connection"]),
        MarkedConfiguration.from_json(data["cfg"]),
    )


def cmd_validate(args):
    from .connection import validate_triple

    triple = _load_json(args, "triple", _triple_from_json)
    ok, violations = validate_triple(triple)
    return {"valid": ok, "violations": violations}


def cmd_limit(args):
    from .connection import validate_triple
    from .higgslimit import HiggsError, cstar_limit

    triple = _load_json(args, "triple", _triple_from_json)
    w = _parse_weight(args.w)
    ok, violations = validate_triple(triple)
    if not ok:
        raise HiggsError(f"not a flat triple: {violations[0]}")
    res = cstar_limit(triple, w)
    return {
        "point": res.point.to_json(triple.cfg),
        "higgs": res.higgs.to_json(),
        "candidates": [
            {"name": c.name, "margin": str(c.margin), "stable": c.stable}
            for c in res.candidates
        ],
    }


def cmd_fiber(args):
    from .higgslimit import FixedLocusPoint, fiber_dimension

    cfg = _parse_cfg(args)
    nu = _parse_spectrum(args.nu, args.d)
    point = _load_json(args, "point", FixedLocusPoint.from_json)
    return {"dim": fiber_dimension(point, cfg, nu)}


def cmd_canonicalize(args):
    from .higgslimit import FixedLocusPoint, fixedpoint_canonicalize, in_removed_locus

    cfg = _parse_cfg(args)
    point = _load_json(args, "point", FixedLocusPoint.from_json)
    canon = fixedpoint_canonicalize(point, cfg)
    return {
        "point": canon.to_json(cfg),
        "in_removed_locus": in_removed_locus(canon, cfg),
    }


def _csv(rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_tables(args):
    cfg = _parse_cfg(args)
    if args.suite == "orbits":
        return _csv(_orbit_rows(cfg))
    if args.suite == "special-loci":
        return _csv(_loci_rows(cfg))
    if args.suite == "chambers":
        return _csv(_chamber_rows())
    if args.suite == "fibers":
        return _csv(_fiber_rows(cfg))
    raise ExactError(f"unknown suite {args.suite!r}")


def _orbit_rows(cfg):
    from .parastruct import bprime_orbit_representatives, classify

    yield ["label", "representative"]
    for s in bprime_orbit_representatives(cfg):
        yield [classify(s, cfg).label(), ",".join(str(u) for u in s.flags)]


def _loci_rows(cfg):
    from .higgslimit import special_loci

    yield ["kind", "label", "coordinates"]
    loci = special_loci(cfg)
    for (i, j), pt in sorted(loci.points.items()):
        kind = "S2" if i == j else "S1"
        yield [kind, f"tau({i + 1},{j + 1})", ":".join(str(c) for c in pt)]
    for i in sorted(loci.lines):
        dual = loci.lines[i]["dual"]
        yield ["line", f"tau({i + 1})", ":".join(str(c) for c in dual)]


def _chamber_rows():
    yield ["family", "lower", "upper", "witness"]
    yield ["U2", "1/5", "1/3", "4/15,4/15,4/15,4/15,4/15"]
    yield ["Ui", "1/3", "3/5", "7/15,7/15,7/15,7/15,7/15"]
    yield ["Uij", "2/3", "4/5", "11/15,4/15,11/15,11/15,11/15"]


def _fiber_rows(cfg):
    from .connection import solve_connection_space
    from .higgslimit import cstar_limit, fiber_dimension
    from .parastruct import B, ParabolicStructure, bprime_generic_representative
    from .spectra import SpectrumRank2
    from .stability import WeightVector

    yield ["case", "component", "dim"]
    nu = SpectrumRank2(
        [(sc("1/4"), sc("-1/4"))] * 4 + [(sc("1/4"), sc("-5/4"))], 1
    )
    w = WeightVector(["1/8", "1/9", "1/7", "1/11", "1/13"])
    samples = [
        ("B-generic", ParabolicStructure(B, [1, 2, 3, 5, 7])),
        ("B-with-zero-flag", ParabolicStructure(B, [0, 2, 3, 5, 7])),
        ("Bprime-generic", bprime_generic_representative(cfg)),
    ]
    for name, s in samples:
        space = solve_connection_space(s, cfg, nu)
        if space is None:
            yield [name, "none", "empty"]
            continue
        t = space.triple_at([1] * space.dim)
        res = cstar_limit(t, w)
        dim = fiber_dimension(res.point, cfg, nu)
        yield [name, res.point.component, str(dim)]


def _int_option(text: str) -> int:
    """An integer option in ASCII digits after an optional sign, padding
    allowed, as in a scalar; ``int`` alone also takes other Unicode digits
    and underscores."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    from .parastruct import NPOINTS

    ap = argparse.ArgumentParser(
        prog="paramod",
        description="exact computations for rank-2 parabolic structures on the "
        "five-punctured line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        if "z" in flags:
            p.add_argument("--z", required=True, help="five marked points, comma separated")
        if "bundle" in flags:
            p.add_argument("--bundle", required=True, help="B or Bprime")
        if "u" in flags:
            p.add_argument("--u", required=True, help="five flags, comma separated ('inf' allowed)")
        if "w" in flags:
            p.add_argument("--w", required=True, help="five weights, comma separated")
        if "nu" in flags:
            p.add_argument("--nu", required=True, help="five eigenvalue pairs 'p,m;p,m;...'")
        if "d" in flags:
            p.add_argument("--d", type=_int_option, required=True, help="degree")
        if "json" in flags:
            p.add_argument("--json", required=True, help="input payload file")
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    common(sub.add_parser("classify"), "z", "bundle", "u").set_defaults(fn=cmd_classify)
    common(sub.add_parser("stability"), "z", "bundle", "u", "w").set_defaults(fn=cmd_stability)
    p = common(sub.add_parser("counts"), "z", "bundle")
    p.add_argument("--list", action="store_true", help="include orbit labels")
    p.set_defaults(fn=cmd_counts)
    p = sub.add_parser("weights")
    p.add_argument("--stratum", help="stratum label from classify")
    p.add_argument("--json", help="classify output file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_weights)
    common(sub.add_parser("chamber"), "w", "d").set_defaults(fn=cmd_chamber)
    common(sub.add_parser("empty"), "bundle", "w").set_defaults(fn=cmd_empty)
    common(sub.add_parser("spectrum"), "nu", "d").set_defaults(fn=cmd_spectrum)
    points = range(1, NPOINTS + 1)
    p = common(sub.add_parser("elm-weight"), "w")
    p.add_argument(
        "--j", type=_int_option, choices=points, required=True, help="marked point index, 1-based"
    )
    p.set_defaults(fn=cmd_elm_weight)
    p = common(sub.add_parser("elm-spectrum"), "nu", "d")
    p.add_argument("--j", type=_int_option, choices=points, required=True)
    p.set_defaults(fn=cmd_elm_spectrum)
    p = common(sub.add_parser("mc"), "nu", "d")
    p.add_argument("--sigma", required=True, help="five signs, e.g. ++-+-")
    p.add_argument("--beta-v", required=True, help="five vertical residues")
    p.set_defaults(fn=cmd_mc)
    p = sub.add_parser("charpoly")
    p.add_argument("--vals", required=True, help="five trace coordinates")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_charpoly)
    common(sub.add_parser("degree-bounds"), "d").set_defaults(fn=cmd_degree_bounds)
    p = common(sub.add_parser("solve"), "z", "bundle", "u", "nu")
    p.add_argument("--params", help="free parameters for an explicit triple")
    p.set_defaults(fn=cmd_solve)
    common(sub.add_parser("validate"), "json").set_defaults(fn=cmd_validate)
    common(sub.add_parser("limit"), "json", "w").set_defaults(fn=cmd_limit)
    common(sub.add_parser("fiber"), "json", "z", "nu", "d").set_defaults(fn=cmd_fiber)
    common(sub.add_parser("canonicalize"), "json", "z").set_defaults(fn=cmd_canonicalize)
    p = sub.add_parser("tables")
    p.add_argument("--suite", required=True, choices=["orbits", "special-loci", "chambers", "fibers"])
    p.add_argument("--z", default="0,1,2,3,4")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tables)
    return ap


def _debug_logger():
    """``logging.getLogger("paramod").debug`` on stderr when PARAMOD_LOG is
    set, at that level (one of LOG_LEVELS, any case; WARNING otherwise), and
    otherwise a no-op that leaves ``logging`` unimported."""
    level = os.environ.get("PARAMOD_LOG", "").upper()
    if not level:
        return lambda *args, **kwargs: None
    import logging

    logging.basicConfig(stream=sys.stderr, level=level if level in LOG_LEVELS else "WARNING")
    return logging.getLogger("paramod").debug


def main(argv=None) -> int:
    debug = _debug_logger()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_SCHEMA if e.code not in (0, None) else 0
    try:
        payload = args.fn(args)
    except PreconditionError as e:
        debug("precondition failure", exc_info=True)
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PRECONDITION
    except SCHEMA_ERRORS as e:
        debug("schema failure", exc_info=True)
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SCHEMA
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SCHEMA
    except Exception as e:  # invariant violation: never expected
        debug("internal failure", exc_info=True)
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
