"""Command line driver: run verification suites, print series expansions.

Reports are deterministic for a fixed config and seed: each suite runs once,
in turn, in this process, assembly is sorted by check id, and nothing
wall-clock dependent enters the output (timings go to stderr, opt-in).
Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .gauss import G
from .heisenberg import (
    GRADED_FLOOR,
    conformal_battery,
    graded_conformal_check,
    heisenberg_suite,
    szego_candidate,
)
from .moser import (
    MoserData,
    example_data,
    load_reference_series,
    moser_structure,
    moser_suite,
    quantity,
)
from .report import has_failure, reports_to_json, reports_to_text
from .sphere import QuadratureConfig, sphere_suite

SUITES = ("all", "moser", "heisenberg", "conformal", "sphere")

# expansion quantities and the engine series they name
QUANTITY_KEYS = {
    "R": "curvature",
    "A": "torsion",
    "g": "levi_metric",
    "lambda": "lambda",
    "pe_tensor": "pseudo_einstein",
}

CORRUPT_OWNER = {"green-power": "heisenberg", "moser-weight4": "moser"}

_CONFIG_KEYS = ("order", "tol", "grid", "seed", "format")

class UsageError(Exception):
    pass


def _config_flags(path) -> list:
    """The lines `key = value` of a settings file, as the flags `--key=value`.

    One token per flag, so a value that starts with "-" stays a value.  main
    parses them before the command line's own flags, so a flag given on the
    command line wins, and argparse checks every value either way.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(f"--{key}={val}")
    return flags


def _grid(text: str):
    # argparse passes a UsageError through, so a bad grid keeps this message
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"bad grid {text!r}: expected RADIALxANGULARxAZIMUTHAL")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad grid {text!r}: node counts must be integers")


def _quad_config(args) -> QuadratureConfig | None:
    if args.grid is None and args.tol is None:
        return None
    kw = {}
    if args.grid is not None:
        nr, na, nz = args.grid
        kw.update(n_radial=nr, n_angular=na, n_azimuthal=nz)
    if args.tol is not None:
        kw["tol"] = args.tol
    try:
        return QuadratureConfig(**kw)
    except ValueError as exc:
        raise UsageError(str(exc))


def _corrupted_moser_data() -> MoserData:
    # a weight-4 monomial is not reachable from any normal-form hypersurface;
    # the expansion and chain checks are expected to flag it
    md = example_data()
    return MoserData(c42=md.c42, c33=md.c33,
                     extra=(((2, 2, 0), G(1)),), allow_low_weight=True)


def _suite_job(name, args, golden=None):
    """Check the settings of suite `name`; return the function that runs it.

    Each function starts with a call to a suite function, looked up in this
    module's globals when it runs, so a wrapper set on the module sees it.
    `run all` makes every suite's function before it runs any, so a usage
    error exits 2 before any suite work and names the first suite, in order,
    it concerns.
    """
    if name == "moser":
        return lambda: moser_suite(
            _corrupted_moser_data() if args.corrupt == "moser-weight4" else None, table=golden)
    if name == "heisenberg":
        return lambda: heisenberg_suite(wrong_power=args.corrupt == "green-power")
    if name == "conformal":
        order = 16 if args.order is None else args.order
        if order < GRADED_FLOOR:
            raise UsageError(f"conformal suite needs --order >= {GRADED_FLOOR}")
        return lambda: conformal_battery() + graded_conformal_check(order=order)
    if name == "sphere":
        # --tol alone leaves the delta ball on its own default grid
        config = _quad_config(args)
        delta_config = config if args.grid is not None else None
        return lambda: sphere_suite(config, seed=args.seed, delta_config=delta_config)
    raise UsageError(f"unknown suite {name!r}")


def _timed(jobs) -> dict:
    """{name: (reports, (wall s, cpu s))}, running the jobs in turn."""
    out = {}
    for name, job in jobs.items():
        wall, cpu = time.monotonic(), time.process_time()
        reports = job()
        out[name] = (reports, (time.monotonic() - wall, time.process_time() - cpu))
    return out


def run_command(args) -> int:
    if args.corrupt and args.suite not in (CORRUPT_OWNER[args.corrupt], "all"):
        raise UsageError(
            f"--corrupt {args.corrupt} belongs to the {CORRUPT_OWNER[args.corrupt]} suite")
    if args.golden and args.suite not in ("moser", "all"):
        raise UsageError("--golden only applies to the moser and all suites")
    golden = None
    if args.golden:
        try:
            golden = load_reference_series(args.golden)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read golden file: {exc}")

    names = ("moser", "heisenberg", "conformal", "sphere") if args.suite == "all" else (args.suite,)
    setup_cpu = time.process_time()
    results = _timed({name: _suite_job(name, args, golden=golden) for name in names})
    if args.timings:
        print(f"setup: cpu {setup_cpu:.2f}s", file=sys.stderr)
        for name, (_, (wall, cpu)) in results.items():
            print(f"{name}: wall {wall:.2f}s, cpu {cpu:.2f}s", file=sys.stderr)
    reports = [r for suite_reports, _ in results.values() for r in suite_reports]

    meta = {"suite": args.suite, "seed": args.seed}
    if args.grid is not None:
        meta["grid"] = "x".join(str(n) for n in args.grid)
    if args.tol is not None:
        meta["tol"] = args.tol
    if args.order is not None:
        meta["order"] = args.order

    emit = reports_to_json if args.format == "json" else reports_to_text
    sys.stdout.write(emit(reports, meta))
    return 1 if has_failure(reports) else 0


def _series_terms(poly):
    rows = []
    for (ez, ezb, eu, epi), c in sorted(poly.coeffs(),
                                        key=lambda kv: (kv[0][0] + kv[0][1] + 2 * kv[0][2], kv[0])):
        row = {"coeff": repr(c), "z": ez, "zb": ezb, "u": eu}
        if epi:
            row["pi"] = epi
        rows.append(row)
    return rows


def expand_command(args) -> int:
    order = 7 if args.order is None else args.order
    if order < 0:
        raise UsageError(f"expand needs --order >= 0, got {order}")

    if args.quantity == "szego":
        closed = szego_candidate()
        if args.format == "json":
            sys.stdout.write(json.dumps(
                {"quantity": "szego", "closed_form": repr(closed)},
                indent=2, sort_keys=True) + "\n")
        else:
            print(f"szego = {closed!r}")
        return 0

    key = QUANTITY_KEYS[args.quantity]
    e = (MoserData() if args.flat else example_data()).e
    ms = moser_structure(e, order=order + 1)
    series = quantity(ms, key)
    if series.order < order + 1:
        # derivatives cost the quantity orders; solve again above the loss
        series = quantity(moser_structure(e, order=order + 1 + ms.order - series.order), key)
    shown = series.truncated(order + 1)
    if args.format == "json":
        doc = {
            "quantity": args.quantity,
            "order": order,
            "flat": bool(args.flat),
            "terms": _series_terms(shown.poly),
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(f"{args.quantity} = {shown.poly!r} + O({shown.order})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crprime",
        description="verification suites and series expansions for the Q-prime engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=None, help="weighted truncation order")
        p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
        p.add_argument("--grid", type=_grid, default=None,
                       help="quadrature nodes, e.g. 96x40x16")
        p.add_argument("--seed", type=int, default=0, help="probe-point seed")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", default=None, help="flat key = value settings file")

    runp = sub.add_parser("run", help="run a verification suite")
    runp.add_argument("suite", choices=SUITES)
    common(runp)
    runp.add_argument("--golden", default=None,
                      help="alternate reference-series file (moser and all suites)")
    runp.add_argument("--corrupt", choices=tuple(CORRUPT_OWNER), default=None,
                      help="negative-control switches that must produce failures")
    runp.add_argument("--timings", action="store_true",
                      help="set-up CPU and per-suite wall and CPU time on stderr "
                           "(never in the report)")

    expp = sub.add_parser("expand", help="print an engine series or closed form")
    expp.add_argument("quantity", choices=tuple(QUANTITY_KEYS) + ("szego",))
    common(expp)
    expp.add_argument("--flat", action="store_true", help="use the flat model (E = 0)")
    return parser


def main(argv=None) -> int:
    # No later collection walks or frees the heap the imports built (numpy's
    # above all), and exit skips tearing it down: the OS reclaims it anyway.
    gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                # argv[0] is the command; the file's flags go before the rest
                args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help; pass both through
            return exc.code if isinstance(exc.code, int) else 2
        if args.command == "run":
            return run_command(args)
        return expand_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
