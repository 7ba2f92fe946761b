import argparse
import hashlib
import io
import json
from itertools import product

import pytest

import taucalc.brackets as br
from taucalc.cli import _PARSER, main


@pytest.fixture(autouse=True)
def fresh_default_table(monkeypatch):
    # CLI behavior must not depend on whatever earlier tests computed
    monkeypatch.setattr(br, "_DEFAULT_TABLE", br.BracketTable())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute(capsys):
    code, out, _ = run(capsys, "compute", "--g", "2", "--d", "2,3")
    assert code == 0 and out.strip() == "29/5760"
    code, out, _ = run(capsys, "compute", "--g", "1", "--d", "0,0")
    assert code == 0 and out.strip() == "0"


def test_compute_kappa(capsys):
    code, out, _ = run(capsys, "compute-kappa", "--g", "1", "--n", "1", "--a", "1")
    assert code == 0 and out.strip() == "1/24"
    code, out, _ = run(
        capsys, "compute-kappa", "--g", "2", "--n", "1", "--a", "2", "--d", "2"
    )
    assert code == 0


def test_compute_kappa_bad_d_length(capsys):
    code, _, err = run(capsys, "compute-kappa", "--g", "1", "--n", "2", "--a", "1", "--d", "0")
    assert code == 2 and "exactly" in err


def test_usage_error_exit_code(capsys):
    assert main(["not-a-verb"]) == 2
    assert main(["verify", "zzz"]) == 2
    assert main([]) == 2


def test_npoint_dump(capsys):
    code, out, _ = run(capsys, "npoint", "--n", "2", "--gmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0,2 -> 1/24"
    assert "2,3 -> 29/5760" in lines
    # sorted by total degree then lexicographically
    degrees = [sum(int(x) for x in line.split(" -> ")[0].split(",")) for line in lines]
    assert degrees == sorted(degrees)


def test_npoint_special_dump(capsys):
    code, out, _ = run(capsys, "npoint", "--n", "1", "--gmax", "2", "--special")
    assert code == 0
    assert "2,1 -> 1/12" in out.splitlines()  # y^2 x^1 coefficient


# sha256 of the stdout of these commands, pinned from the Fraction-based
# n-point engine; the integer kernel must reproduce them byte for byte
@pytest.mark.parametrize("argv, digest", [
    ("npoint --n 4 --gmax 4",
     "4f0576082de0fcec3f51e0897f6ed266dcc1ca56dfaf6259b7105789872314cf"),
    ("npoint --n 3 --gmax 6",
     "f5f7cdac01f1a0d96814b980b5deed593c85087ede309c4863d1601ded8f73aa"),
    ("npoint --n 5 --gmax 3",
     "e859c0175b1b757a5e5057b410761adabbb78da1e322b2254900009393d5b182"),
    ("npoint --n 6 --gmax 2",
     "cc4baa79191cfc2d9f8a24366c2688f96c8c578065fce0e59b6744dd7afca6f2"),
    ("npoint --n 2 --gmax 3 --special",
     "0822d2aeb6cca4e98bb5197840ff824bb328fff0f52b8499ae12c67e6149a306"),
    ("monotone --n 2 --gmax 20 --no-timing",
     "e7dc16b6f68ba6897e50490a9139227bf8252114103b23fff3fdcd09d0308bea"),
    # pinned from the full-monomial engine before the sorted-key one; the
    # first four equal the digests in perfbench/expected.json
    ("npoint --n 4 --gmax 7",
     "472dc4091b7be69e99ddbcc6a59c088d857eab389ba60b089ecd41379822c35c"),
    ("npoint --n 5 --gmax 4",
     "d9ba73f1a215f277c4b2a4b035b47e0dc3f8dd9c202160d8eb85b3c168be8d80"),
    ("npoint --n 3 --gmax 9",
     "f79d5840523825ad846cdfb5d7151d67f1e669424c66c5eeaf8c97aff4137afd"),
    ("npoint --n 2 --gmax 5 --special",
     "098ce4d02d75fb620727283c5366ab9ef617b3498b1e4cd326b335194eb88f0d"),
    ("npoint --n 6 --gmax 3",
     "57cd466af2d6cd64b0e48579b6f742464a7eaf8f8855280753086004bb1dc3bf"),
    # pinned from the dump that read every ordering off .f: the one-point
    # dump, and the two-point one with its unstable 1/(x+y) correction
    ("npoint --n 1 --gmax 6",
     "1a7c683412a7ecbde48c263dc382eea527f5db73e849a15543c162f1f6b9157e"),
    ("npoint --n 2 --gmax 8",
     "0c675c04ffbac5c9a5f7273ccfc0e53c74244f5eee895eaa95301ca3b0e0c7bd"),
    # pinned from the merged dump that folded G over every ordering
    ("npoint --n 1 --gmax 6 --special",
     "3165d66060121abab59bb89c4203ba437fcafdfdb59722e1113b26b3aeee8bde"),
    ("npoint --n 3 --gmax 4 --special",
     "893bb9431718d6eb07be7f6cf0c4697fb848b422dd64935954ec6e824278d986"),
    ("npoint --n 4 --gmax 3 --special",
     "3480d89fedda26331121672c95dbfc0d1ef11013643cdd28fae61f32528ac236"),
])
def test_npoint_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of commands that read deep two-point rows, pinned
# from the Horner row builder before the order-5 recurrence
@pytest.mark.parametrize("argv, digest", [
    ("monotone --n 2 --gmax 120 --no-timing",
     "d907fb17d9bb478af31312ab667cafcb635c7c6cd8100095d8e9fa9c71ac71be"),
    ("compute --g 60 --d 89,90",
     "150508bd1a60c2138f7a12f99d8bb5ab3e28867efc16b371916ee5861ffcff83"),
])
def test_two_point_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify <token> --no-timing --jobs 1` stdout at the default grid,
# pinned from the Fraction-based split_sum before its integer row kernel
@pytest.mark.parametrize("token, digest", [
    ("eq3", "d2efa0ec8bce3ae1d99896c93f476d508e800d979f5fad3deca2e8a3882980c0"),
    ("eq4", "9a4a3e7104427656add335085eec465c879d88b1b525d70f182b37adcfd7a7cc"),
    ("eq5", "70645a0554844bd96c19a120574b5a736638917dc5428958be68aa14e88d07f4"),
    ("eq6", "c670f5b349ca243c6ea0765bf43b98ff3ceac00674e4f500460ff8b6d0d6cc1a"),
    ("eq7", "3dac7228ea0c28b3d56b1a0b4b9e3bde6704d8893b2df71fa8b1abc7ba232bf6"),
    ("eq8", "3c1aec42d2b40d88bb98e0a918fc07d5aeaabd8d7ee7eea9fc523f059fa46e18"),
    ("c32", "c2ce13d2b9dc993da1682d3f6470a400fb477499fe2c1bb9cd56263865f352c4"),
    ("c33", "ac9e1466b2b99370b3ce361fb6b949e21558bada6f2dda938a147299013cda43"),
    ("c34", "cbe6c376cc93e6d335ae5ca9a3eb4eef6a12c04c9dd2a689300ffa06737402df"),
    ("c35", "c177046845329b3cc65a319e734bf4b5738700fdd1389f0cd51272f51e4833ff"),
])
def test_verify_golden_stdout(capsys, token, digest):
    code, out, _ = run(capsys, "verify", token, "--no-timing", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the remaining verify tokens, pinned from the Fraction-summing kappa_to_psi
# and the repeat-evaluating monotone sweeps, before their integer kernels
@pytest.mark.parametrize("token, digest", [
    ("decomp", "6ab40ea42bd6965ceb87f402cf39d1240a2a6747c0d31dc00fb730912c902d1a"),
    ("n1sums", "e1956dde74706e9b82df70d968230bd4b07449299fff73c6e20aa70141407246"),
    ("c41", "b84f4171af27cdcb4b4e5a92fa31ab28bdc743dfcd3e92ad94834391fc57c582"),
    ("c51", "5d127da564c46f7989728740f6ef8e4fac053ff298240ead2a12cd35177d07f7"),
    ("c52", "340488777318452f08b7350026ee99c988236bed2684f6bfb6789260b6354d91"),
    ("c53", "bda417697685972f76da922de27d51d8dc25b650b8a4d225bfba91646c104cee"),
    ("c54", "eeaa7d6dcf89759abda34b70518867ea463f5c651b7d36f78299b9e9f4fecc9d"),
])
def test_verify_other_tokens_golden_stdout(capsys, token, digest):
    code, out, _ = run(capsys, "verify", token, "--no-timing", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `denom --g <g>` stdout, pinned while script-D still went through
# the kappa recursion rather than reading psi-brackets
@pytest.mark.parametrize("argv, digest", [
    ("denom --g 7", "55e40e95647734896b54eb53a651a35cbe1eb66b30315b184e9ef4c703ded8e5"),
    ("denom --g 8", "56ff0fc39463d31128f3f486dbcb3959370c60b416aad30ce2a35104bb056f50"),
])
def test_script_D_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kappa_cold_cache_file_golden(tmp_path, capsys):
    # pinned when script-D(5) visited its brackets in the kappa fold's
    # state order; the psi-bracket route must leave the same file
    cache = tmp_path / "d5.cache"
    code, out, _ = run(capsys, "denom", "--g", "5", "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e30a9482dcc364f8867436862416f78eddad3d1418b17a8d8f39f7f48e35d585"
    )
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "5541d23bc07d271e1f44c5319d5350367744f3ad4d35993c8a1b3e6b39748fca"
    )


def test_compute_kappa_cold_cache_file_golden(tmp_path, capsys):
    # the brackets that the kappa steps read decide the cache file
    cache = tmp_path / "kappa.cache"
    code, out, _ = run(capsys, "compute-kappa", "--g", "5", "--n", "1",
                       "--a", "1,1,1,1,1,1,1,1,1,1,1", "--d", "2", "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6dd5f761547dd303d0c52d2338d844db5b47f8f5733ffcefe7da5e0bb3896698"
    )
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "cdc373d21f3cd0303f6c3ce4061d4e115430b2bb2539df5edc638560229818ce"
    )


def test_many_point_cold_cache_file_golden(tmp_path, capsys):
    # D(6, 7) descends through string, dilaton and boundary steps
    cache = tmp_path / "d67.cache"
    code, out, _ = run(capsys, "denom", "--g", "6", "--n", "7", "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36f5bef2652e22fe5d2adcf6f3ed5d24fe3e4e2835aad6dbf0b27df713e04054"
    )
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "5f313f69023171f5af1db0e6f112d9fbf3abd96ab067e5e5f0d5ee1008a690fa"
    )


def test_verify_cold_cache_file_golden(tmp_path, capsys):
    # the bracket lookups a sweep makes decide which entries the cache holds
    cache = tmp_path / "c34.cache"
    code, _, _ = run(capsys, "verify", "c34", "--no-timing", "--jobs", "1", "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "f994412ac3ff100bc112a3d0aa86cda68d220637b519200cf105a433555f956a"
    )


@pytest.mark.parametrize("argv, digest", [
    # c33's descent terms and c35's two-sided convolutions read brackets
    # that no other family reads; the order and set of reads must not move
    (("verify", "c33"), "170093827290908d8950cad9ba3a0b9279a9c155c14b3a4d12cc5ab825f7a994"),
    (("verify", "c35", "--no-timing", "--jobs", "1"),
     "8b7875e73a79da6a50c5304175bd38382edff883436201ed6925f671bdde4214"),
])
def test_verify_cold_cache_file_golden_c33_c35(tmp_path, capsys, argv, digest):
    cache = tmp_path / "sweep.cache"
    code, _, _ = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest


def test_verify_json_and_exit(capsys):
    code, out, _ = run(
        capsys, "verify", "eq4", "--gmax", "2", "--nmax", "2", "--jobs", "1", "--no-timing"
    )
    assert code == 0
    lines = out.strip().splitlines()
    reports = json.loads(lines[0])
    assert all(r["pass"] for r in reports)
    assert lines[1] == f"PASS {len(reports)}/{len(reports)}"


def test_verify_other_tokens(capsys):
    for argv in (
        ["verify", "decomp", "--gmax", "3", "--nmax", "2"],
        ["verify", "n1sums", "--gmax", "3"],
        ["verify", "c41", "--gmax", "2"],
        ["verify", "c51", "--gmax", "2", "--nmax", "2"],
        ["verify", "c52", "--gmax", "2", "--nmax", "1"],
        ["verify", "c53", "--gmax", "2", "--nmax", "1"],
        ["verify", "c54", "--gmax", "2", "--nmax", "2"],
        ["verify", "c32", "--gmax", "1", "--nmax", "1"],
    ):
        code = main(argv + ["--no-timing", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.out[-200:])
        assert captured.out.strip().splitlines()[-1].startswith("PASS")


def test_verify_c41_through_genus_five(capsys):
    code, out, _ = run(capsys, "verify", "c41", "--gmax", "5", "--jobs", "1", "--no-timing")
    assert code == 0 and out.strip().splitlines()[-1] == "PASS 24/24"


def test_parallel_sweep_saves_the_serial_cache(tmp_path, capsys, monkeypatch):
    saved = {}
    for jobs in ("1", "2"):
        monkeypatch.setattr(br, "_DEFAULT_TABLE", br.BracketTable())
        cache = tmp_path / f"jobs{jobs}.cache"
        code, out, _ = run(capsys, "verify", "eq4", "--gmax", "4", "--nmax", "3",
                           "--jobs", jobs, "--no-timing", "--cache", str(cache))
        assert code == 0
        saved[jobs] = (out, dict(br.cache_load(str(cache)).items()))
    assert len(saved["1"][1]) > 100
    assert saved["2"] == saved["1"]


@pytest.mark.parametrize("argv", [
    ("denom", "--g", "3", "--n", "2"),
    ("denom", "--g", "3"),
    ("monotone", "--lambda", "none", "--n", "3", "--gmax", "3", "--no-timing"),
])
def test_denom_and_monotone_honour_cache(tmp_path, capsys, monkeypatch, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(br, "_DEFAULT_TABLE", br.BracketTable())
    cache = tmp_path / "d.cache"
    code, cached, _ = run(capsys, *argv, "--cache", str(cache))
    assert code == 0 and cached == plain
    loaded = br.cache_load(str(cache))
    assert len(loaded) > 0 and dict(loaded.items()) == dict(br.default_table().items())


def test_denom_output(capsys):
    code, out, _ = run(capsys, "denom", "--g", "2")
    assert code == 0
    human, payload = out.strip().splitlines()
    assert human == "script-D(2) = 5760 = 2^7 · 3^2 · 5"
    data = json.loads(payload)
    assert data == {
        "g": 2, "value": 5760, "factors": [[2, 7], [3, 2], [5, 1]],
        "rendered": "2^7 · 3^2 · 5",
    }
    code, out, _ = run(capsys, "denom", "--g", "1", "--n", "1")
    assert code == 0 and json.loads(out.strip().splitlines()[1])["value"] == 24


def test_denom_on_zero_points_is_an_input_error(capsys):
    # D(g, 0) would be an lcm over no bracket, and used to print D(2,0) = 1
    code, out, err = run(capsys, "denom", "--g", "2", "--n", "0")
    assert code == 2 and out == "" and "n >= 1" in err


def test_cache_round_trip(tmp_path, capsys):
    warm = tmp_path / "warm.cache"
    code, out, _ = run(capsys, "compute", "--g", "3", "--d", "1,2,6", "--cache", str(warm))
    assert code == 0
    first = out
    assert warm.exists()
    code, out, _ = run(capsys, "compute", "--g", "3", "--d", "1,2,6", "--cache", str(warm))
    assert code == 0 and out == first

    exported = tmp_path / "exported.cache"
    code, out, _ = run(capsys, "cache", "--cache", str(warm), "--export", str(exported))
    assert code == 0
    assert exported.read_text().startswith("TAUCACHE v1\n")

    code, out, _ = run(capsys, "cache", "--import", str(exported), "--verify-cache")
    assert code == 0 and "imported" in out


@pytest.mark.parametrize("argv", [
    ("cache", "--export", "{path}"),
    ("compute", "--g", "2", "--d", "2,3", "--cache", "{path}"),
])
def test_cache_save_error_names_the_destination(tmp_path, capsys, argv):
    # the save goes through a temporary file beside the destination; an
    # error must name the path the user gave and leave no file behind
    path = str(tmp_path / "missing" / "x.cache")
    code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_import_rejects_corruption(tmp_path, capsys):
    bad = tmp_path / "bad.cache"
    bad.write_text("TAUCACHE v1\n1|1,1|1/25\n")
    code, _, err = run(capsys, "cache", "--import", str(bad), "--verify-cache")
    assert code == 2 and "contradicts" in err


def test_cache_import_rejects_non_dyadic_value(tmp_path, capsys):
    # a sealed file whose one value, times (2*1+1)!!^2 = 9, has an odd
    # denominator: no bracket has that form, so the load fails on line 2
    entry = "1|1,1|1/27"
    digest = hashlib.sha256(entry.encode()).hexdigest()
    bad = tmp_path / "bad.cache"
    bad.write_text(f"TAUCACHE v1\n{entry}\n#sha256={digest}\n")
    code, out, err = run(capsys, "cache", "--import", str(bad))
    assert code == 2 and out == "" and "line 2" in err and "not dyadic" in err


def test_cache_that_is_not_utf8_names_its_line(tmp_path, capsys):
    # a stray byte on line 3 stops both the import and a verb's --cache,
    # with the line named, and the file is left as it was; a text stream
    # of the same bytes is rejected with the same message
    damaged = b"TAUCACHE v1\n1|1|1/24\n2|4|1/1152\xff\n#sha256=0\n"
    cache = tmp_path / "binary.cache"
    cache.write_bytes(damaged)
    for source in (str(cache), io.TextIOWrapper(io.BytesIO(damaged), encoding="utf-8")):
        with pytest.raises(br.CacheError, match="line 3: not UTF-8: byte 0xff"):
            br.cache_load(source)
    for argv in (["cache", "--import", str(cache)], ["compute", "--g", "1", "--d", "1", "--cache", str(cache)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: line 3: not UTF-8"), argv
    assert cache.read_bytes() == damaged


def test_truncated_cache_is_rejected_and_not_saved_again(tmp_path, capsys):
    cache = tmp_path / "t.cache"
    code, out, _ = run(capsys, "compute", "--g", "4", "--d", "2,2,2,4,4", "--cache", str(cache))
    assert code == 0 and out.strip() == "5609/23040"
    lines = cache.read_text().splitlines()
    damaged = "\n".join(lines[:-2] + [lines[-2].replace("5609/23040", "5609/7")]) + "\n"
    cache.write_text(damaged)
    code, out, err = run(capsys, "compute", "--g", "4", "--d", "2,2,2,4,4", "--cache", str(cache))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert cache.read_text() == damaged


def test_cache_is_saved_back_only_when_entries_were_added(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "w.cache"
    small = ["verify", "eq5", "--gmax", "2", "--nmax", "2", "--no-timing", "--cache", str(cache)]
    # a missing file is created
    code, first, _ = run(capsys, *small)
    assert code == 0 and cache.exists()
    text, mtime = cache.read_bytes(), cache.stat().st_mtime_ns
    # a warm rerun that computes nothing leaves the file alone
    monkeypatch.setattr(br, "_DEFAULT_TABLE", br.BracketTable())
    code, out, _ = run(capsys, *small)
    assert code == 0 and out == first
    assert cache.read_bytes() == text and cache.stat().st_mtime_ns == mtime
    # a run that adds entries rewrites it, and keeps what it held
    monkeypatch.setattr(br, "_DEFAULT_TABLE", br.BracketTable())
    code, _, _ = run(capsys, "compute", "--g", "4", "--d", "2,2,2,4,4", "--cache", str(cache))
    assert code == 0 and cache.read_bytes() != text
    grown = br.cache_load(str(cache))
    assert set(dict(grown.items())) > set(dict(br.cache_load(io.StringIO(text.decode())).items()))


def test_io_error_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "compute", "--g", "2", "--d", "2,3", "--cache", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_warm_rerun_is_byte_identical(tmp_path, capsys):
    warm = tmp_path / "sweep.cache"
    args = ["verify", "eq5", "--gmax", "2", "--nmax", "2", "--jobs", "1",
            "--no-timing", "--cache", str(warm)]
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert code == 0 and first == second


def test_monotone_deep_streams_progress(capsys):
    code, out, err = run(capsys, "monotone", "--lambda", "none", "--n", "2",
                         "--gmax", "6", "--no-timing")
    assert code == 0
    assert "g=6" in err  # progress lines go to stderr
    assert json.loads(out.strip().splitlines()[0])[0]["pass"] is True


def test_failing_reports_exit_one(capsys):
    from fractions import Fraction

    from taucalc.cli import _emit_reports
    from taucalc.report import Report

    bad = Report(id="eq4", params={"g": 1, "d": (1,)}, lhs=Fraction(1), rhs=Fraction(2))
    code = _emit_reports([bad], timing=False)
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.splitlines()[0])[0]["pass"] is False
    assert out.strip().splitlines()[-1] == "PASS 0/1"


@pytest.mark.parametrize("count", [1, 513])
def test_report_output_is_written_in_chunks(capsys, count):
    from fractions import Fraction

    from taucalc.cli import _emit_reports
    from taucalc.report import _CHUNK, Report, json_chunks, reports_to_json

    # 513 reports fill two whole chunks and start a third; one fails, so
    # the exit code and the summary read every pass flag.  The writer takes
    # its reports in canonical order, as every producer hands them over
    reports = [
        Report(id="eq4", params={"g": g, "d": (1, g)}, lhs=Fraction(g, 3), rhs=Fraction(g, 3 - (g == 7)))
        for g in range(1, count + 1)
    ]
    assert len(list(json_chunks(reports))) == 2 + -(-count // _CHUNK)
    code = _emit_reports(reports, timing=False)
    out = capsys.readouterr().out
    assert code == (1 if count >= 7 else 0)
    summary = f"PASS {count - (count >= 7)}/{count}"
    assert out == reports_to_json(reports, timing=False) + "\n" + summary + "\n"
    # and the text is the encoding of the whole list, in canonical order
    whole = [r.to_dict(timing=False) for r in sorted(reports, key=lambda r: r.params["g"])]
    assert out.splitlines()[0] == json.dumps(whole, default=str)


def test_report_writer_holds_at_most_one_chunk(monkeypatch):
    from fractions import Fraction

    from taucalc.cli import _emit_reports
    from taucalc.report import _CHUNK, Report, reports_to_json

    count = 2 * _CHUNK + 3
    reports = [
        Report(id="eq4", params={"g": g, "d": (1, g)}, lhs=Fraction(g), rhs=Fraction(g + (g == 300)))
        for g in range(1, count + 1)
    ]

    class Sink(io.StringIO):
        # each encoded report holds one "id" field
        def written(self):
            return self.getvalue().count('"id": ')

    sink = Sink()
    monkeypatch.setattr("sys.stdout", sink)
    yielded = 0

    def produce():
        nonlocal yielded
        for r in reports:
            # a report handed over is pending until its text is written
            assert yielded + 1 - sink.written() <= _CHUNK
            yielded += 1
            yield r

    code = _emit_reports(produce(), timing=False)
    assert yielded == sink.written() == count
    assert code == 1
    assert sink.getvalue() == reports_to_json(reports, timing=False) + f"\nPASS {count - 1}/{count}\n"


def test_error_after_output_started_exits_two(capsys, monkeypatch):
    from fractions import Fraction

    import taucalc.identities as ids
    from taucalc.report import Report

    # a sweep streams its reports, so an error partway through leaves the
    # pieces already written: a truncated array and no summary line
    def run_then_fail(g_max, n_max):
        yield Report(id="eq4", params={"g": 1, "d": (1,)}, lhs=Fraction(1), rhs=Fraction(1))
        raise ValueError("damaged input")

    monkeypatch.setitem(ids.VERIFY_TOKENS, "eq4", (1, 1, run_then_fail))
    code, out, err = run(capsys, "verify", "eq4", "--no-timing")
    assert code == 2 and "damaged input" in err
    assert out.startswith("[") and not out.rstrip().endswith("]") and "PASS" not in out


# a small grid per verify token, each holding some instance
_SMALL_GRIDS = {
    "eq3": (3, 2), "eq4": (3, 2), "eq5": (2, 2), "eq6": (2, 2), "eq7": (3, 3), "eq8": (3, 2),
    "c32": (2, 2), "c33": (2, 2), "c34": (2, 2), "c35": (2, 2), "decomp": (3, 2), "n1sums": (3, 1),
    "c41": (3, 1), "c51": (2, 2), "c52": (2, 1), "c53": (2, 1), "c54": (2, 2),
}


def test_small_grids_cover_every_verify_token():
    from taucalc.identities import VERIFY_TOKENS

    assert _SMALL_GRIDS.keys() == VERIFY_TOKENS.keys()


@pytest.mark.parametrize("token", sorted(_SMALL_GRIDS))
def test_verify_tokens_yield_canonical_order(capsys, token):
    from taucalc.identities import VERIFY_TOKENS

    g_max, n_max = _SMALL_GRIDS[token]
    # every runner hands back a lazy iterator, not a list it has built
    produced = VERIFY_TOKENS[token][2](g_max, n_max)
    assert iter(produced) is produced
    reports = list(produced)
    keys = [r.sort_key() for r in reports]
    assert len(reports) > 1 and keys == sorted(keys)
    code, out, _ = run(capsys, "verify", token, "--gmax", str(g_max), "--nmax", str(n_max), "--no-timing")
    passed = sum(r.passed for r in reports)
    assert code == 0 and out.splitlines()[-1] == f"PASS {passed}/{len(reports)}"


def test_no_verify_run_passes_having_checked_nothing():
    # a run yields nothing (an empty grid, exit 2) or checks something: an
    # identity report checks its one instance, and a c5x report counts its
    # comparisons on the lhs
    from taucalc.identities import VERIFY_TOKENS

    for token, (_, _, runner) in VERIFY_TOKENS.items():
        for g_max, n_max in product(range(4), repeat=2):
            reports = list(runner(g_max, n_max))
            checked = sum(r.lhs if r.id.startswith("c5") else 1 for r in reports)
            assert not reports or checked, (token, g_max, n_max)


def test_monotone_lambda_top(capsys):
    code, out, _ = run(capsys, "monotone", "--lambda", "top", "--n", "2",
                       "--gmax", "4", "--no-timing")
    assert code == 0 and out.strip().endswith("PASS 4/4")


@pytest.mark.parametrize("argv", [
    ("verify", "eq4", "--gmax", "-2"),
    ("verify", "c53", "--gmax", "2", "--nmax", "-5"),
    ("verify", "c35", "--nmax", "-1"),
    ("monotone", "--n", "2", "--gmax", "-1"),
    ("monotone", "--lambda", "top", "--n", "3", "--gmax", "-3"),
    ("monotone", "--n", "-3", "--gmax", "2"),
    ("monotone", "--lambda", "top", "--n", "-1", "--gmax", "2"),
    ("denom", "--g", "2", "--n", "-1"),
    # a point count below zero, not a --d length to mismatch
    ("compute-kappa", "--g", "1", "--n", "-1", "--a", "1"),
])
def test_negative_grid_bound_is_a_usage_error(capsys, argv):
    # an empty grid would print "PASS 0/0" and exit 0 without checking anything
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 2 and out == "" and "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("verify", "eq3", "--gmax", "1"),
    ("verify", "eq4", "--nmax", "0"),
    ("verify", "c52", "--gmax", "0"),
    # the denominator block starts at genus 2
    ("verify", "c41", "--gmax", "0"),
    ("verify", "c41", "--gmax", "1"),
    ("monotone", "--lambda", "top", "--gmax", "0"),
    # a report per stratum, but none compares anything: at genus 0 the
    # two-point rows are empty and (0, 0, 0) has no single-unit move
    ("monotone", "--n", "2", "--gmax", "0"),
    ("monotone", "--n", "3", "--gmax", "0"),
    # one report per stratum, none with a move: no genus-0 stratum has one
    # with spectators >= 2, and a one-point stratum has no swap
    ("verify", "c51", "--gmax", "0"),
    ("verify", "c51", "--gmax", "6", "--nmax", "1"),
    # with fewer than two points there is no swap
    ("monotone", "--n", "0", "--gmax", "3"),
    ("monotone", "--n", "1", "--gmax", "3"),
    ("monotone", "--lambda", "top", "--n", "0", "--gmax", "3"),
    ("monotone", "--lambda", "top", "--n", "1", "--gmax", "3"),
])
def test_empty_grid_is_a_usage_error(capsys, argv):
    # bounds that are valid but leave no instance would print "PASS 0/0",
    # or "PASS k/k" with lhs = rhs = 0
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 2 and out == "" and "no instance" in err


# the smallest command line of each verb
_MINIMAL_ARGV = {
    "compute": ("compute", "--g", "1", "--d", "1"),
    "compute-kappa": ("compute-kappa", "--g", "1", "--n", "1", "--a", "1"),
    "npoint": ("npoint", "--n", "2", "--gmax", "1"),
    "verify": ("verify", "eq4", "--gmax", "2", "--nmax", "2"),
    "denom": ("denom", "--g", "2", "--n", "1"),
    "monotone": ("monotone", "--n", "2", "--gmax", "2"),
    "cache": ("cache", "--export", "{tmp}/exported.cache"),
}


def test_minimal_argv_covers_every_verb():
    verbs = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_MINIMAL_ARGV) == set(verbs.choices)


@pytest.mark.parametrize("verb", sorted(_MINIMAL_ARGV))
def test_every_verb_rejects_a_damaged_cache(tmp_path, capsys, verb):
    # "Any command takes --cache PATH": a damaged file stops every verb
    # before it prints anything, and is left as it was
    cache = tmp_path / "damaged.cache"
    cache.write_text("not a cache\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _MINIMAL_ARGV[verb]]
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 2 and out == "" and "line 1" in err
    assert cache.read_text() == "not a cache\n"


def test_npoint_creates_a_missing_cache(tmp_path, capsys):
    cache = tmp_path / "new.cache"
    code, out, _ = run(capsys, "npoint", "--n", "2", "--gmax", "1", "--cache", str(cache))
    assert code == 0 and out.splitlines()[0] == "0,2 -> 1/24"
    assert len(br.cache_load(str(cache))) == 0


def test_zero_nmax_still_sweeps_unpointed_strata(capsys):
    # c52 and c53 start at n = 0, so --nmax 0 is a real grid
    code, out, _ = run(capsys, "verify", "c53", "--gmax", "2", "--nmax", "0", "--no-timing")
    assert code == 0 and out.strip().splitlines()[-1] == "PASS 1/1"
