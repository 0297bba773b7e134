"""Command line front end: compute, cache, report, verify.

One task per invocation: ``magarr <task> <source>`` with a task out of
mag, homology, lattice, verify, conjectures.  A source is a catalog
name or a file of normals, either JSON ({"dimension": d, "normals":
[["p/q", ...], ...], "labels": [...]}) or a whitespace-separated
matrix, one hyperplane per row, with # comments.  ``run`` reads the
parsed command line itself, and each task reads the arrangement off the
tope graph or the flat poset that carries it.  Cached geometry is kept
per exact row presentation.

Reports are deterministic: the same job produces the same bytes, so
timing and cache notes go to stderr only.  Rational numbers in JSON
are rendered as "p/q" strings.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources

from . import homology, magnitude
from .arrangement import (
    CATALOG_NAMES,
    TopeGraph,
    catalog,
    enumerate_chambers,
    intersection_lattice,
    parse_arrangement,
)
from .errors import BudgetExceededError, MagarrError, ParseError
from .homology import (
    conjecture_probes,
    default_length_cap,
    four_cut_minimum,
    magnitude_homology,
)
from .magnitude import chamber_orbits, magnitude_direct, magnitude_fraction
from .polyq import IntPoly

TASKS = ("mag", "homology", "lattice", "verify", "conjectures")
REPORT_SCHEMA = 1
SCHEMA_VERSION = 2  # cache payload
FOUR_CUT_LIMIT = 60


# ---------------------------------------------------------------------------
# sources

def _exact_number(text):
    """A JSON number with a fraction or exponent, read exactly from its
    text (0.1 is 1/10).  One too large for a float stays the float
    infinity, which ``parse_arrangement`` rejects."""
    value = float(text)
    return value if math.isinf(value) else Fraction(text)


def load_arrangement(source):
    """Resolve a catalog name, or read a normals file.

    Returns (arrangement, display name, is_file).  File fixtures are
    keyed by the file stem, so a file named "A(7,1).txt" is matched
    against the shipped fixture of that name.
    """
    if os.path.exists(source):
        name = os.path.splitext(os.path.basename(source))[0]
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"{source}: cannot read ({exc})") from None
        if text.lstrip().startswith("{"):
            try:
                data = json.loads(text, parse_float=_exact_number)
            except ValueError as exc:  # JSONDecodeError, or an overlong int
                raise ParseError(f"{source}: bad JSON ({exc})") from None
            rows = data.get("normals")
            if not rows:
                raise ParseError(f"{source}: missing 'normals'")
            if type(rows) is not list or any(type(r) is not list for r in rows):
                raise ParseError(f"{source}: 'normals' must be a list of lists")
            labels = data.get("labels")
            if labels is not None and (
                    type(labels) is not list
                    or any(type(x) is not str for x in labels)):
                raise ParseError(f"{source}: 'labels' must be a list of strings")
            arr = parse_arrangement(rows, labels=labels)
            want_d = data.get("dimension")
            if want_d is not None:
                if type(want_d) is not int:  # bool is a subclass of int
                    raise ParseError(f"{source}: 'dimension' must be an integer")
                if want_d != arr.dimension:
                    raise ParseError(
                        f"{source}: dimension {want_d} != row length "
                        f"{arr.dimension}"
                    )
        else:
            rows = []
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    rows.append(line.split())
            arr = parse_arrangement(rows)
        return arr, name, True
    key = source.strip()
    for cname in CATALOG_NAMES:
        if cname.lower() == key.lower():
            key = cname
            break
    return catalog(source), key, False


# ---------------------------------------------------------------------------
# lattice cache

def cache_key(arrangement):
    """Content hash of the dimension and the rows in their given order,
    so each row presentation has an entry of its own."""
    text = f"d={arrangement.dimension};" + ";".join(
        ",".join(str(x) for x in row) for row in arrangement.normals
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _geometry_payload(graph):
    arrangement = graph.arrangement
    return {
        "version": SCHEMA_VERSION,
        "dimension": arrangement.dimension,
        "rows": [list(row) for row in arrangement.normals],
        "masks": list(graph.masks),
        "witnesses": [list(w) for w in graph.witnesses],
    }


def _geometry_from_payload(arrangement, data):
    """Rebuild and re-check the geometry of a cache entry.

    Each witness must lie strictly inside its mask's chamber and the
    masks must strictly increase, so every mask is a distinct chamber;
    the lattice is rebuilt, and its Zaslavsky count then says that no
    chamber is missing.
    """
    if data.get("version") != SCHEMA_VERSION:
        raise ParseError("cache schema version mismatch")
    if data["rows"] != [list(row) for row in arrangement.normals]:
        # a hash collision: the entry is for other rows
        raise ParseError("cache entry stored for a different row presentation")
    masks = [int(m) for m in data["masks"]]
    witnesses = [tuple(int(x) for x in w) for w in data["witnesses"]]
    graph = TopeGraph(arrangement, masks, witnesses)
    return graph, intersection_lattice(graph)


def get_geometry(arrangement, cache_dir):
    """Chambers and flats, through the cache when one is configured."""
    if not cache_dir:
        graph = enumerate_chambers(arrangement)
        return graph, intersection_lattice(graph), "off"
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise ParseError(
            f"--cache {cache_dir}: not a usable directory ({exc})") from None
    path = os.path.join(cache_dir, cache_key(arrangement) + ".json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
            graph, lattice = _geometry_from_payload(arrangement, data)
            return graph, lattice, "hit"
        except Exception as exc:  # corrupt or stale: recompute and overwrite
            print(f"cache: discarding {path}: {exc}", file=sys.stderr)
    graph = enumerate_chambers(arrangement)
    lattice = intersection_lattice(graph)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(_geometry_payload(graph), fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        raise ParseError(f"--cache {cache_dir}: cannot write ({exc})") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return graph, lattice, "miss"


# ---------------------------------------------------------------------------
# golden fixtures

def _golden(fname):
    try:
        text = resources.files("magarr").joinpath("golden").joinpath(
            fname
        ).read_text()
    except FileNotFoundError:
        return {}
    return json.loads(text)


def _parse_cells(table):
    return {
        tuple(int(x) for x in key.split(",")): v for key, v in table.items()
    }


def golden_magnitude():
    return _golden("magnitude.json")


def golden_betti():
    return _golden("betti.json")


def golden_extras():
    return _golden("extras.json")


# ---------------------------------------------------------------------------
# task runners

def _cells_out(table):
    return {f"{k},{l}": v for (k, l), v in sorted(table.items()) if v}


def _torsion_out(table):
    return {f"{k},{l}": list(v) for (k, l), v in sorted(table.items())}


def _mag_task(args, graph, lattice, group):
    res = magnitude_direct(graph, group)
    return {
        "magnitude": {"num": list(res.magnitude.num.coeffs),
                      "den": list(res.magnitude.den.coeffs)},
        "interior": {"num": list(res.interior.num.coeffs),
                     "den": list(res.interior.den.coeffs)},
        "series": list(res.series),
        "interior_series": list(res.interior_series),
        "cyclotomic_denominator": [[k, m] for k, m in res.cyclotomic_den],
        "orbit_count": res.orbit_count,
        "symmetry_order": res.symmetry_order,
        "checks": magnitude.structural_checks(
            lattice, group, res, not args.no_face_check, args.det_check),
    }


def _homology_task(args, graph, group):
    lmax = args.lmax if args.lmax is not None else default_length_cap(graph)
    mag, (system, _) = magnitude_fraction(graph, group)
    res = magnitude_homology(graph, lmax=lmax, group=group, magnitude=mag,
                             system=system)
    out = {
        "lmax": res.lmax,
        "betti": _cells_out(res.betti),
        "torsion": _torsion_out(res.torsion),
        "interior_betti": _cells_out(res.interior_betti),
        "interior_torsion": _torsion_out(res.interior_torsion),
        "checks": dict(res.checks),
    }
    if len(graph) <= FOUR_CUT_LIMIT:
        out["four_cut_min"] = four_cut_minimum(graph, group=group)
    return out


def _lattice_task(lattice):
    flats = []
    for f in lattice.flats:
        flats.append({
            "hyperplanes": list(f.hyperplanes),
            "rank": f.rank,
            "mobius": f.mobius,
            "restriction_chambers": lattice.restriction_chamber_count(f.index),
        })
    return {
        "rank": lattice.rank,
        "chambers": len(lattice.graph),
        "characteristic_polynomial": list(lattice.characteristic_polynomial()),
        "flats": flats,
    }


def _conjectures_task(args, graph, group):
    lmax = args.lmax if args.lmax is not None else default_length_cap(graph)
    mag = magnitude_direct(graph, group)
    hom = magnitude_homology(graph, lmax=lmax, group=group,
                             system=mag.system[0])
    return conjecture_probes(graph, mag, hom)


def _verify_task(args, name, is_file, graph, lattice, group):
    """Full structural suite plus golden diffs for the source."""
    checks = {}
    golden = {}
    face_check = not args.no_face_check
    mag = magnitude_direct(graph, group)
    registries = {"mag": magnitude.structural_checks(
        lattice, group, mag, face_check, args.det_check)}

    gm = None if is_file else golden_magnitude().get(name)
    if gm is not None:
        diff = []
        if list(mag.magnitude.num.coeffs) != gm["num"]:
            diff.append("num")
        if list(mag.magnitude.den.coeffs) != gm["den"]:
            diff.append("den")
        if list(mag.series) != gm["series"]:
            diff.append("series")
        checks["golden:magnitude"] = not diff
        if diff:
            golden["magnitude_diff"] = diff
    extra = golden_extras().get(name) if is_file else None
    if extra is not None:
        checks["golden:series"] = list(mag.series) == extra["series"]

    fixture = None if is_file else golden_betti().get(name)
    if fixture is None and extra is not None and "betti" in extra:
        fixture = extra
    if args.lmax is not None:
        lmax = args.lmax
    elif fixture is not None:
        lmax = fixture["lmax"]
    else:
        lmax = default_length_cap(graph)
    hom = magnitude_homology(graph, lmax=lmax, group=group,
                             magnitude=mag.magnitude, system=mag.system[0])
    checks["hom:boundary_squares_to_zero"] = True
    registries["hom"] = homology.structural_checks(
        lattice, group, hom, face_check)
    if fixture is not None:
        cap = min(lmax, fixture["lmax"])
        want = {
            k: v for k, v in _parse_cells(fixture["betti"]).items()
            if k[1] <= cap
        }
        got = {k: v for k, v in hom.betti.items() if v and k[1] <= cap}
        want_tor = {
            k: v for k, v in _parse_cells(fixture["torsion"]).items()
            if k[1] <= cap
        }
        got_tor = {k: list(v) for k, v in hom.torsion.items() if k[1] <= cap}
        bad = sorted(
            f"{k},{l}"
            for (k, l) in set(want) | set(got)
            if want.get((k, l)) != got.get((k, l))
        )
        checks["golden:betti"] = not bad and got_tor == {
            k: list(v) for k, v in want_tor.items()
        }
        golden["betti_cells_checked"] = len(want)
        if bad:
            golden["betti_diff"] = bad
    for prefix, named in registries.items():
        for key, val in named.items():
            checks[f"{prefix}:{key}"] = val
    out = {"lmax": lmax, "checks": checks, "golden": golden,
           "ok": all(checks.values())}
    return out


def run(args):
    """Execute the parsed command line; returns (report bundle, list of
    failed checks)."""
    arrangement, name, is_file = load_arrangement(args.source)
    cache_dir = args.cache or os.environ.get("MAGARR_CACHE")
    graph, lattice, cache_note = get_geometry(arrangement, cache_dir)
    if cache_dir:
        print(f"cache: {cache_note}", file=sys.stderr)
    # every task but lattice reads the symmetry group
    group = None if args.task == "lattice" else chamber_orbits(graph)[2]
    bundle = {
        "schema": REPORT_SCHEMA,
        "source": args.source,
        "arrangement": {
            "name": name,
            "dimension": arrangement.dimension,
            "hyperplanes": arrangement.n,
            "labels": list(arrangement.labels),
            "rank": lattice.rank,
            "chambers": len(graph),
            "characteristic_polynomial": list(
                lattice.characteristic_polynomial()
            ),
        },
    }
    task = args.task
    t0 = time.time()
    if task == "mag":
        out = _mag_task(args, graph, lattice, group)
    elif task == "homology":
        out = _homology_task(args, graph, group)
    elif task == "lattice":
        out = _lattice_task(lattice)
    elif task == "conjectures":
        out = _conjectures_task(args, graph, group)
    else:
        out = _verify_task(args, name, is_file, graph, lattice, group)
    bundle["tasks"] = {task: out}
    print(f"{task}: {time.time() - t0:.2f}s", file=sys.stderr)
    failures = [
        f"{task}:{key}" for key, val in out.get("checks", {}).items() if not val
    ]
    return bundle, failures


# ---------------------------------------------------------------------------
# rendering

def _series_text(series):
    return ", ".join(str(c) for c in series)


def _betti_tsv(cells, lmax):
    table = _parse_cells(cells)
    if table:
        kmax = max(k for k, _ in table)
    else:
        kmax = 0
    lines = ["k\\l\t" + "\t".join(str(l) for l in range(lmax + 1))]
    for k in range(kmax + 1):
        row = [str(table.get((k, l), 0)) for l in range(lmax + 1)]
        lines.append(f"{k}\t" + "\t".join(row))
    return lines


def _checks_text(checks):
    bad = sorted(key for key, val in checks.items() if not val)
    if bad:
        return f"checks: {len(checks) - len(bad)}/{len(checks)} ok, failing: " \
            + ", ".join(bad)
    return f"checks: {len(checks)}/{len(checks)} ok"


def render(bundle):
    a = bundle["arrangement"]
    lines = [
        f"{a['name']}: dimension {a['dimension']}, {a['hyperplanes']} "
        f"hyperplanes, rank {a['rank']}, {a['chambers']} chambers"
    ]
    ((task, out),) = bundle["tasks"].items()
    if task == "mag":
        lines.append(
            "magnitude = (%s) / (%s)"
            % (IntPoly(out["magnitude"]["num"]),
               IntPoly(out["magnitude"]["den"]))
        )
        lines.append("series: " + _series_text(out["series"]))
        lines.append(
            "interior = (%s) / (%s)"
            % (IntPoly(out["interior"]["num"]),
               IntPoly(out["interior"]["den"]))
        )
        factors = " ".join(
            f"Phi_{k}^{m}" if m > 1 else f"Phi_{k}"
            for k, m in out["cyclotomic_denominator"]
        )
        lines.append(f"denominator factors: {factors or '1'}")
        lines.append(
            f"chamber orbits: {out['orbit_count']}, symmetry order: "
            f"{out['symmetry_order']}"
        )
        lines.append(_checks_text(out["checks"]))
    elif task == "homology":
        lines.append(f"betti table to length {out['lmax']}:")
        lines.extend(_betti_tsv(out["betti"], out["lmax"]))
        if out["torsion"]:
            items = "; ".join(
                f"({key}): {vals}" for key, vals in out["torsion"].items()
            )
            lines.append(f"torsion: {items}")
        else:
            lines.append("torsion: none")
        if out.get("four_cut_min") is not None:
            lines.append(f"shortest non-geodesic 3-chain: {out['four_cut_min']}")
        lines.append(_checks_text(out["checks"]))
    elif task == "lattice":
        lines.append(
            "characteristic polynomial coefficients (ascending): "
            + ", ".join(str(c) for c in out["characteristic_polynomial"])
        )
        by_rank = {}
        for f in out["flats"]:
            by_rank.setdefault(f["rank"], []).append(f)
        for r in sorted(by_rank):
            lines.append(f"rank {r}: {len(by_rank[r])} flats")
        lines.append(f"chambers: {out['chambers']}")
    elif task == "verify":
        for key in sorted(out["checks"]):
            status = "PASS" if out["checks"][key] else "FAIL"
            lines.append(f"{status} {key}")
        good = sum(1 for v in out["checks"].values() if v)
        lines.append(
            f"verify: {good}/{len(out['checks'])} checks passed "
            f"(lmax={out['lmax']})"
        )
    else:
        lines.append(json.dumps(out, indent=1, sort_keys=True))
    return lines


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="magarr",
        description="Exact magnitude and magnitude homology of real "
        "central hyperplane arrangements.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("source", help="catalog name or normals file")
    parser.add_argument("--lmax", type=int, default=None,
                        help="length cap for homology gradings")
    parser.add_argument("--det-check", action="store_true",
                        help="force the Varchenko determinant check")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable bundle here")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="lattice cache directory (or MAGARR_CACHE)")
    parser.add_argument("--no-face-check", action="store_true",
                        help="skip the face decomposition cross-checks")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.lmax is not None and args.lmax < 0:
            raise ParseError("--lmax must be nonnegative")
        bundle, failures = run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}; {exc.hint}", file=sys.stderr)
        return 3
    except MagarrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump(bundle, fh, sort_keys=True, indent=1)
                fh.write("\n")
        except OSError as exc:
            print(f"error: --json {args.json}: cannot write ({exc})",
                  file=sys.stderr)
            return 2
    for line in render(bundle):
        print(line)
    if failures:
        print("failed checks: " + ", ".join(sorted(failures)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
