"""Command-line front end.

Verbs:
  compute         one psi-bracket
  compute-kappa   one mixed psi/kappa integral
  npoint          dump an n-point function (or its merged special form)
  verify          run a verification sweep, emit JSON reports + summary
  denom           denominator profiles D(g, n) / script-D(g)
  monotone        long-running monotonicity modes with progress streaming
  cache           export / import the bracket memo table

Each verb's parser names the function that runs it, and every verb runs
one way: warm from --cache, run, and save the table back if it grew.

Exit codes: 0 success or all-pass, 1 any verification failure, 2 usage,
input or I/O errors.  All rationals print as num/den.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import brackets as br
from . import denominators as dn
from . import identities as ids
from . import monotone as mono
from .npoint import merged_series, npoint_series
from .reduction import kappa_to_psi
from .report import Report, json_chunks


def _parse_int_list(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _grid_bound(text: str) -> int:
    """A --gmax, --nmax or --n value; a negative one would sweep nothing
    and pass, recurse without end, or count points below zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tau", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--cache", metavar="PATH", default=None,
                       help="warm-start from this cache file and save back on exit")
        p.add_argument("--no-timing", action="store_true",
                       help="omit elapsed-time fields from reports")

    p = sub.add_parser("compute", help="one bracket <tau_{d_1}..tau_{d_n}>_g")
    p.set_defaults(run=lambda args: print(br.bracket(args.g, args.d)) or 0)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=_parse_int_list, default=())
    common(p)

    p = sub.add_parser("compute-kappa", help="one mixed integral <tau_d kappa_a>_{g,n}")
    p.set_defaults(run=_run_compute_kappa)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=_grid_bound, required=True)
    p.add_argument("--a", type=_parse_int_list, required=True)
    p.add_argument("--d", type=_parse_int_list, default=None)
    common(p)

    p = sub.add_parser("npoint", help="dump n-point function coefficients")
    p.set_defaults(run=_run_npoint)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--special", action="store_true",
                   help="dump the merged (n+2)-point series G(y,-y,x_1..x_n) instead")
    common(p)

    p = sub.add_parser("verify", help="verification sweeps")
    p.set_defaults(run=_run_verify)
    p.add_argument("identity", choices=ids.VERIFY_TOKENS)
    p.add_argument("--gmax", type=_grid_bound, default=None)
    p.add_argument("--nmax", type=_grid_bound, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored: every sweep runs in this process (kept so that "
                        "existing command lines still parse)")
    common(p)

    p = sub.add_parser("denom", help="denominator profile D(g,n) or script-D(g)")
    p.set_defaults(run=_run_denom)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=_grid_bound, default=None)
    common(p)

    p = sub.add_parser("monotone", help="long-running monotonicity modes")
    p.set_defaults(run=_run_monotone)
    p.add_argument("--lambda", dest="lam", choices=("none", "top"), default="none")
    p.add_argument("--n", type=_grid_bound, default=2)
    p.add_argument("--gmax", type=_grid_bound, required=True)
    common(p)

    p = sub.add_parser("cache", help="export or import the bracket table")
    p.set_defaults(run=_run_cache)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--export", metavar="PATH")
    group.add_argument("--import", dest="import_path", metavar="PATH")
    p.add_argument("--verify-cache", action="store_true",
                   help="recompute every imported entry and reject on mismatch")
    common(p)

    return top


def _run_compute_kappa(args) -> int:
    d = args.d if args.d is not None else (0,) * args.n
    if len(d) != args.n:
        raise ValueError(f"--d must list exactly {args.n} exponents")
    print(kappa_to_psi(args.g, d, args.a))
    return 0


def _run_npoint(args) -> int:
    series = (merged_series if args.special else npoint_series)(args.n, args.gmax)
    sys.stdout.writelines(f"{line}\n" for line in series.dump_lines())
    return 0


def _emit_reports(reports: Iterable[Report], timing: bool) -> int:
    """Write the reports, given in canonical order, a piece at a time, then
    "PASS k/N"; the summary and the exit code count them as they go out."""
    pending = iter(reports)
    first = next(pending, None)
    if first is None:
        # an empty grid checks nothing, so it must not read as a pass
        print("error: the grid holds no instance to check", file=sys.stderr)
        return 2
    total = passed = 0

    def counted() -> Iterator[Report]:
        nonlocal total, passed
        for r in chain((first,), pending):
            total += 1
            passed += r.passed
            yield r

    for chunk in json_chunks(counted(), timing=timing):
        sys.stdout.write(chunk)
    print()
    print(f"PASS {passed}/{total}")
    return 0 if passed == total else 1


def _run_verify(args) -> int:
    g_def, n_def, run = ids.VERIFY_TOKENS[args.identity]
    g_max = args.gmax if args.gmax is not None else g_def
    n_max = args.nmax if args.nmax is not None else n_def
    return _emit_reports(run(g_max, n_max), not args.no_timing)


def _run_denom(args) -> int:
    if args.n is None:
        profile = dn.compute_script_D(args.g)
        label = f"script-D({args.g})"
    else:
        profile = dn.compute_D(args.g, args.n)
        label = f"D({args.g},{args.n})"
    print(f"{label} = {profile.value} = {profile.rendered()}")
    print(json.dumps(profile.to_dict()))
    return 0


def _run_monotone(args) -> int:
    if args.lam == "top":
        strata = mono.stable_strata(1, args.gmax, args.n, args.n)
        reports = [mono.lambda_g_swap_check(g, n) for g, n in strata]
    elif args.n == 2:
        reports = [mono.psi_swap_deep(args.gmax, progress=lambda msg: print(msg, file=sys.stderr))]
    else:
        reports = []
        for g, n in mono.stable_strata(0, args.gmax, args.n, args.n):
            reports.append(mono.psi_swap_check(g, n))
            print(f"g={g} done", file=sys.stderr)
    # every branch lists its strata by genus, the canonical order
    return _emit_reports(mono.comparing(reports), not args.no_timing)


def _run_cache(args) -> int:
    if args.export:
        count = br.cache_save(br.default_table(), args.export)
        print(f"exported {count} entries to {args.export}")
        return 0
    table = br.cache_load(args.import_path, verify=args.verify_cache)
    br.default_table().update(table)
    print(f"imported {len(table)} entries from {args.import_path}")
    return 0


def _with_cache(args, body) -> int:
    """Run body() on the default table, warm from --cache if its file
    exists, and save the table back unless it still holds exactly the
    file's entries: an unchanged file is not written again."""
    path = getattr(args, "cache", None)
    table = br.default_table()
    stored = -1
    if path and os.path.exists(path):
        loaded = br.cache_load(path)
        table.update(loaded)
        stored = len(loaded)
    try:
        return body()
    finally:
        # entries are only ever added, so an equal count means the same keys
        if path and len(table) != stored:
            br.cache_save(table, path)


# built once, at import: the parser is fixed, and building it (gettext
# and its locale lookup) is start-up work, not work of a command
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _with_cache(args, lambda: args.run(args))
    except (br.CacheError, ids.ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
