"""Tests of the benchmark itself: failure accounting, names, tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Invocation

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# cheap invocations, one or more per workload
CHEAP = {
    "strata_cold": "compute --g 11 --d 31",
    "verify_warm": "verify eq7 --gmax 6 --nmax 4 --jobs 1 --no-timing --cache {cache}",
    "npoint_series": "npoint --n 3 --gmax 9",
    "kappa_reduction": "denom --g 4",
}


def _invocation(workload: str, key: str) -> Invocation:
    return next(inv for inv in WORKLOADS[workload] if inv.key == key)


@pytest.fixture(scope="module")
def checkout() -> run.Checkout:
    checkout = run.Checkout(ROOT)
    checkout.warm_up()
    return checkout


@pytest.fixture(scope="module")
def cache(checkout) -> Path:
    return checkout.warm_cache()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(run.EXPECTED.read_text())


def test_every_name_is_plain():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_invocation_is_pinned(expected):
    for workload, grid in WORKLOADS.items():
        assert set(expected[workload]) == {inv.key for inv in grid}


def test_corrupted_digest_is_a_failure(checkout, expected):
    inv = _invocation("strata_cold", CHEAP["strata_cold"])
    pinned = expected["strata_cold"][inv.key]
    good = checkout.invoke(inv, pinned, False, None, run.INVOCATION_TIMEOUT_S)
    assert good.ok, good.reason
    corrupted = dict(pinned, sha256="0" * 64)
    bad = checkout.invoke(inv, corrupted, False, None, run.INVOCATION_TIMEOUT_S)
    assert not bad.ok and "sha256" in bad.reason
    assert run.end_to_end([good, bad])["ok_ratio"] == 0.5


def test_nonzero_exit_is_a_failure(checkout):
    inv = Invocation(("compute", "--g", "not-a-number"))
    sample = checkout.invoke(inv, None, False, None, run.INVOCATION_TIMEOUT_S)
    assert not sample.ok and sample.reason.startswith("exit 2")


def test_timeout_is_a_failure(checkout):
    inv = _invocation("strata_cold", CHEAP["strata_cold"])
    sample = checkout.invoke(inv, None, False, None, timeout=0.05)
    assert not sample.ok and sample.reason.startswith("timeout")


def test_summary_line_must_pass_everything():
    assert run._all_passed("PASS 3/3")
    assert not run._all_passed("PASS 2/3")
    assert not run._all_passed('{"id": "eq3"}')


def test_tracing_does_not_change_output(checkout, cache, expected):
    for workload, key in CHEAP.items():
        inv = _invocation(workload, key)
        pinned = expected[workload][key]
        plain = checkout.invoke(inv, pinned, False, cache, run.INVOCATION_TIMEOUT_S)
        traced = checkout.invoke(inv, pinned, True, cache, run.INVOCATION_TIMEOUT_S)
        assert plain.ok and traced.ok, (plain.reason, traced.reason)
        assert plain.sha256 == traced.sha256 == pinned["sha256"]
        assert traced.layers["cli.main_s"] > 0


def test_reported_metrics_are_the_specified_ones(checkout, cache, expected):
    inv = _invocation("verify_warm", CHEAP["verify_warm"])
    pinned = expected["verify_warm"][inv.key]
    samples = [checkout.invoke(inv, pinned, traced, cache, run.INVOCATION_TIMEOUT_S)
               for traced in (True, False)]
    layers = run.per_layer(samples, 1)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.end_to_end(samples[1:])) == {m["name"] for m in SPEC["end_to_end"]}
    assert layers["brackets.memo_misses"] == 0
    assert layers["brackets.self_s"] <= layers["brackets.s"]
    assert layers["identities.self_s"] <= layers["identities.verify_s"]


def test_seed_only_permutes_the_order():
    grid = WORKLOADS["strata_cold"]
    for traced in (False, True):
        first = [next(run.schedule(grid, traced, random.Random(seed))) for seed in (1, 2)]
        assert sorted(first[0], key=repr) == sorted(first[1], key=repr)
        assert {inv for inv, _ in first[0]} == set(grid)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strata_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
