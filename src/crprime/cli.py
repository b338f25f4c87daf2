"""Command line driver: run verification suites, print series expansions.

Reports are deterministic for a fixed config and seed: each suite runs once,
in this process or in the one forked worker of `run all`, assembly is sorted
by check id, and nothing wall-clock dependent enters the output (timings go
to stderr, opt-in).  Exit codes:
0 all checks pass, 1 at least one failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import signal
import sys
import time

from .gauss import G
from .heisenberg import (
    GRADED_FLOOR,
    conformal_battery,
    flat_model,
    graded_conformal_check,
    heisenberg_suite,
    q3_identity,
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
    "g": "metric",
    "lambda": "lambda",
    "pe_tensor": "pseudo_einstein",
}

CORRUPT_OWNER = {"green-power": "heisenberg", "moser-weight4": "moser"}

_CONFIG_KEYS = ("order", "tol", "grid", "seed", "format")

# The suites that `run all` hands to its one forked worker while this process
# runs the others: moser + sphere take about as much CPU as heisenberg +
# conformal, so the two processes finish at about the same time.
_WORKER_SUITES = ("heisenberg", "conformal")


class UsageError(Exception):
    pass


def _parse_config_file(path) -> dict:
    out = {}
    try:
        text = open(path).read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = val
    return out


def _parse_grid(text: str):
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"bad grid {text!r}: expected RADIALxANGULARxAZIMUTHAL")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad grid {text!r}: node counts must be integers")


def _effective_settings(args) -> dict:
    """Config-file values overridden by explicit command line flags."""
    merged = _parse_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    try:
        if "order" in merged:
            merged["order"] = int(merged["order"])
        if "seed" in merged:
            merged["seed"] = int(merged["seed"])
        if "tol" in merged:
            merged["tol"] = float(merged["tol"])
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}")
    if "grid" in merged and isinstance(merged["grid"], str):
        merged["grid"] = _parse_grid(merged["grid"])
    if merged.get("format", "text") not in ("text", "json"):
        raise UsageError(f"bad format {merged['format']!r}: expected text or json")
    return merged


def _quad_config(settings) -> QuadratureConfig | None:
    if "grid" not in settings and "tol" not in settings:
        return None
    kw = {}
    if "grid" in settings:
        nr, na, nz = settings["grid"]
        kw.update(n_radial=nr, n_angular=na, n_azimuthal=nz)
    if "tol" in settings:
        kw["tol"] = settings["tol"]
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


def _suite_job(name, settings, golden=None, corrupt=None):
    """Check the settings of suite `name`; return a function that runs it.

    `run all` makes every job before it runs any, so a usage error exits 2
    before any suite work and names the first suite, in order, it concerns.
    """
    if name == "moser":
        return lambda: moser_suite(
            _corrupted_moser_data() if corrupt == "moser-weight4" else None, table=golden)
    if name == "heisenberg":
        def heisenberg_job():
            reports = heisenberg_suite()
            if corrupt == "green-power":
                reports = [r for r in reports if r.check_id != "heisenberg.q3_identity"]
                reports.append(q3_identity(wrong_power=True))
            return reports
        return heisenberg_job
    if name == "conformal":
        order = settings.get("order", 16)
        if order < GRADED_FLOOR:
            raise UsageError(f"conformal suite needs --order >= {GRADED_FLOOR}")
        return lambda: conformal_battery() + graded_conformal_check(order=order)
    if name == "sphere":
        # --tol alone leaves the delta ball on its own default grid
        config = _quad_config(settings)
        delta_config = config if "grid" in settings else None
        return lambda: sphere_suite(config, seed=settings.get("seed", 0),
                                    delta_config=delta_config)
    raise UsageError(f"unknown suite {name!r}")


def _timed(jobs) -> dict:
    """{name: (reports, (wall s, cpu s))} for jobs run in this process."""
    out = {}
    for name, job in jobs.items():
        wall, cpu = time.monotonic(), time.process_time()
        reports = job()
        out[name] = (reports, (time.monotonic() - wall, time.process_time() - cpu))
    return out


def _cpus_available() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(jobs):
    """Fork a child that runs `jobs`; return its pid and its result pipe.

    The child sends _timed(jobs), or the exception it raised, as one pickle
    and ends with os._exit: it never returns into the caller's stack.  Fork,
    not spawn: the child needs no second import of crprime, and crprime
    starts no threads that a fork could leave broken.
    """
    rfd, wfd = os.pipe()
    gc.freeze()  # the child's collector then leaves the shared pages alone
    pid = os.fork()
    if pid:
        os.close(wfd)
        return pid, os.fdopen(rfd, "rb")
    code = 1
    try:
        os.close(rfd)
        try:
            result = _timed(jobs)
        except Exception as exc:
            result = exc
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _run_jobs(jobs) -> dict:
    """_timed(jobs), with the _WORKER_SUITES jobs in one forked worker.

    The worker is forked only when there is more than one job and a second
    CPU to run it on.  This process always runs its own jobs before it
    waits, and it reaps the worker on every path.
    """
    forked = {}
    if len(jobs) > 1 and hasattr(os, "fork") and _cpus_available() > 1:
        forked = {name: job for name, job in jobs.items() if name in _WORKER_SUITES}
    if not forked:
        return _timed(jobs)
    flat_model()  # built once, before the fork, for both processes
    pid, pipe = _fork_worker(forked)
    with pipe:
        try:
            results = _timed({name: job for name, job in jobs.items() if name not in forked})
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
            gc.unfreeze()
    if status != 0 or not data:
        raise RuntimeError(f"the worker running {' and '.join(forked)} ended without a "
                           f"result (exit code {os.waitstatus_to_exitcode(status)})")
    worker = pickle.loads(data)
    if isinstance(worker, Exception):
        raise worker
    return {**results, **worker}


def run_command(args) -> int:
    settings = _effective_settings(args)
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
    jobs = {name: _suite_job(name, settings, golden=golden, corrupt=args.corrupt)
            for name in names}
    results = _run_jobs(jobs)
    if args.timings:
        print(f"setup: cpu {setup_cpu:.2f}s", file=sys.stderr)
        for name in names:
            wall, cpu = results[name][1]
            print(f"{name}: wall {wall:.2f}s, cpu {cpu:.2f}s", file=sys.stderr)
    reports = [r for name in names for r in results[name][0]]

    meta = {"suite": args.suite, "seed": settings.get("seed", 0)}
    if "grid" in settings:
        meta["grid"] = "x".join(str(n) for n in settings["grid"])
    if "tol" in settings:
        meta["tol"] = settings["tol"]
    if "order" in settings:
        meta["order"] = settings["order"]

    emit = reports_to_json if settings.get("format", "text") == "json" else reports_to_text
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
    settings = _effective_settings(args)
    order = settings.get("order", 7)
    if order < 0:
        raise UsageError(f"expand needs --order >= 0, got {order}")
    fmt = settings.get("format", "text")

    if args.quantity == "szego":
        closed = szego_candidate()
        if fmt == "json":
            sys.stdout.write(json.dumps(
                {"quantity": "szego", "closed_form": repr(closed)},
                indent=2, sort_keys=True) + "\n")
        else:
            print(f"szego = {closed!r}")
        return 0

    key = QUANTITY_KEYS[args.quantity]
    md = MoserData() if args.flat else example_data()
    series = quantity(moser_structure(md, order=order + 1), key)
    shown = series.truncated(order + 1)
    if fmt == "json":
        doc = {
            "quantity": args.quantity,
            "order": order,
            "flat": bool(args.flat),
            "terms": _series_terms(shown.poly),
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(f"{args.quantity} = {shown.poly!r} + O({order + 1})")
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
        p.add_argument("--grid", default=None, help="quadrature nodes, e.g. 96x40x16")
        p.add_argument("--seed", type=int, default=None, help="probe-point seed")
        p.add_argument("--format", choices=("text", "json"), default=None)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "run":
            return run_command(args)
        return expand_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
