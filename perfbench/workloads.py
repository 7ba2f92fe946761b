"""The benchmark's workloads: fixed grids of `tau` invocations.

Each workload is a list of invocations of the `tau` command line, each run
in its own fresh interpreter.  The grids never change with the seed; the
seed only permutes the order in which one pass runs them.

The grids are scaled so that one pass takes about 4 to 6 s on a 2-vCPU
AMD EPYC VM with CPython 3.11, which lets a 25 s run repeat every
invocation three to five times.  NOTES.md records why each workload exists
and which layer it is meant to stress.
"""

from __future__ import annotations

from dataclasses import dataclass

# placeholder in an argv that run.py replaces with a fresh copy of the warm
# bracket cache (``--cache`` rewrites its file on exit)
CACHE = "{cache}"

# verify tokens whose cold sweep produces the warm cache, and the grid the
# verify_warm workload re-runs warm
VERIFY_TOKENS = ("eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "c32", "c33", "c34", "c35")
VERIFY_LIMITS = ("--gmax", "6", "--nmax", "4", "--jobs", "1", "--no-timing")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Stable identifier, used to look up the pinned output."""
        return " ".join(self.argv)

    @property
    def uses_cache(self) -> bool:
        return CACHE in self.argv

    @property
    def reports(self) -> bool:
        """verify and monotone end their stdout with a "PASS k/n" line."""
        return self.argv[0] in ("verify", "monotone")


def _grid(*lines: str) -> tuple[Invocation, ...]:
    return tuple(Invocation(tuple(line.split())) for line in lines)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # bracket engine filling an empty memo: wide n stresses
    # submultiset_splits and the boundary sum, deep g the descent chain
    "strata_cold": _grid(
        "denom --g 6 --n 7",
        "denom --g 7 --n 5",
        "denom --g 9 --n 3",
        "compute --g 11 --d 31",
        "compute --g 10 --d 14,15",
    ),
    # memo read path, TAUCACHE load/save, identity evaluators, report JSON
    "verify_warm": tuple(
        Invocation(("verify", token) + VERIFY_LIMITS + ("--cache", CACHE))
        for token in VERIFY_TOKENS
    ),
    # polynomial-series engine and the deep two-point rows; no brackets
    "npoint_series": _grid(
        "npoint --n 4 --gmax 7",
        "npoint --n 5 --gmax 4",
        "npoint --n 3 --gmax 9",
        "npoint --n 2 --gmax 5 --special",
        "monotone --n 2 --gmax 80 --no-timing",
    ),
    # kappa reduction over set partitions.  The grid stays below the cliff:
    # script-D(5) (`denom --g 5`) walks Bell(12) ~ 4.2M partitions in 13 s,
    # `denom --g 6` takes more than 120 s, `denom --g 7` more than 10 min,
    # and `verify c41 --gmax 5` 92 s because it recomputes script-D(5).
    # Bell(11)-sized kappa monomials give the same layer mix in 2 s each.
    "kappa_reduction": _grid(
        "compute-kappa --g 5 --n 0 --a 1,1,1,1,1,1,1,1,1,1,2",
        "compute-kappa --g 5 --n 1 --a 1,1,1,1,1,1,1,1,1,1,1 --d 2",
        "compute-kappa --g 5 --n 2 --a 1,1,1,1,1,1,1,1,1,1 --d 2,2",
        "verify c52 --gmax 3 --nmax 1 --jobs 1 --no-timing",
        "denom --g 4",
    ),
}
