from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpstat import cli, genfunc, moments
from jumpstat.cli import main
from jumpstat.trees import DEFAULT_ENUMERATION_CAP, STREAMING_CAP, catalan

REPO = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats(capsys):
    code, out, err = run(capsys, "stats", "[[.,.],[.,[.,.]]]")
    assert code == 0
    assert json.loads(out) == {"internal": 4, "jumps": 1, "depth": 3,
                               "jumpdist": 1}
    assert err == ""


def test_stats_parse_error(capsys):
    code, out, err = run(capsys, "stats", "[.,")
    assert code == 2
    assert out == ""
    assert "position 3" in err


def test_enumerate_plain(capsys):
    code, out, err = run(capsys, "enumerate", "3")
    assert code == 0
    assert out.splitlines() == [
        "[.,[.,[.,.]]]",
        "[.,[[.,.],.]]",
        "[[.,.],[.,.]]",
        "[[.,[.,.]],.]",
        "[[[.,.],.],.]",
    ]


def test_enumerate_with_stats(capsys):
    code, out, err = run(capsys, "enumerate", "2", "--with-stats")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"tree": "[.,[.,.]]", "internal": 2, "jumps": 0, "depth": 2,
         "jumpdist": 0},
        {"tree": "[[.,.],.]", "internal": 2, "jumps": 1, "depth": 1,
         "jumpdist": 1},
    ]


def test_enumerate_refuses_by_default_a_size_past_the_cost_band(capsys):
    # 14 would stream 2.7 million trees, about 38 s of CPU
    code, out, err = run(capsys, "enumerate", "14")
    assert (code, out) == (3, "")
    assert "cap of 13" in err


def test_enumerate_cap_refusal(capsys):
    code, out, err = run(capsys, "enumerate", "17")
    assert code == 3
    assert out == ""
    assert "cap" in err
    code, _, _ = run(capsys, "enumerate", "5", "--cap", "4")
    assert code == 3
    # raising the cap explicitly is allowed
    code, out, _ = run(capsys, "enumerate", "5", "--cap", "5")
    assert code == 0
    assert len(out.splitlines()) == catalan(5)


def test_series_json(capsys):
    code, out, err = run(capsys, "series", "jumps", "--order", "3")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "H"
    assert data["order"] == 3
    assert data["series"][3] == {"n": 3, "terms": [
        {"et": 0, "eq": 0, "num": 1, "den": 1},
        {"et": 0, "eq": 1, "num": 3, "den": 1},
        {"et": 0, "eq": 2, "num": 1, "den": 1},
    ]}


def test_series_alias_and_bad_order(capsys):
    code, out, _ = run(capsys, "series", "f", "--order", "5")
    assert code == 0
    data = json.loads(out)
    assert [t["num"] for row in data["series"] for t in row["terms"]] == \
        [1, 1, 2, 5, 14, 42]
    code, _, err = run(capsys, "series", "f", "--order", "-1")
    assert code == 2
    assert "--order" in err


@pytest.mark.parametrize("error", [genfunc.SelfCheckError])
def test_solver_failure_exits_1_with_message(capsys, monkeypatch, error):
    def broken(order):
        raise error("series is corrupt")

    monkeypatch.setitem(genfunc.SOLVERS, "H", broken)
    code, out, err = run(capsys, "series", "H", "--order", "4")
    assert code == 1
    assert out == ""
    assert err == "jumpstat: series is corrupt\n"


def test_the_series_tables_agree():
    # the caps, the solvers and the CLI's names cover the same five series,
    # the self-checked ids name some of them, and every id has a check: a
    # series or id added to one table only fails here
    series = set(genfunc.ORDER_CAPS)
    assert len(series) == 5
    assert set(genfunc.SOLVERS) == set(cli.SERIES_ALIASES.values()) == series
    assert set(genfunc._SELF_CHECKED.values()) <= series
    assert set(genfunc._SELF_CHECKED) <= set(genfunc.THEOREM_IDS)
    for tid in genfunc.THEOREM_IDS:
        assert genfunc.verify_theorem(tid, 2) == (tid, 2, True, None)


def test_series_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "Z"])
    assert exc.value.code == 2


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "3", "--order", "12")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"theorem": "3", "order": 12, "pass": True,
                       "first_failure": None}


def test_verify_all_ids_quick(capsys):
    for tid in "0123456":
        code, out, _ = run(capsys, "verify", tid, "--order", "8",
                           "--oracle-cap", "6")
        assert code == 0, (tid, out)
        assert json.loads(out)["pass"] is True


def test_verify_oracle_cap_above_the_ceiling_exits_3(capsys):
    code, out, err = run(capsys, "verify", "1", "--order", "40",
                         "--oracle-cap", "17")
    assert code == 3
    assert out == ""
    assert "--oracle-cap must be at most 16" in err


def test_verify_refuses_a_negative_oracle_cap_before_any_work(capsys,
                                                             monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(genfunc, "brute_force_enumerator", never)
    monkeypatch.setattr(genfunc, "solve_F", never)
    code, out, err = run(capsys, "verify", "1", "--order", "40",
                         "--oracle-cap", "-1")
    assert (code, out, err) == (2, "", "jumpstat: --oracle-cap must be >= 0\n")


def test_enumerate_refuses_a_negative_cap_before_any_work(capsys,
                                                         monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "enumerate_trees_with_stats", never)
    code, out, err = run(capsys, "enumerate", "3", "--cap", "-1")
    assert (code, out, err) == (2, "", "jumpstat: --cap must be >= 0\n")


def test_verify_rejects_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "9"])
    assert exc.value.code == 2


def test_moments_csv(capsys):
    code, out, err = run(capsys, "moments", "jumps", "--format", "csv",
                         "--nmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,b_n,m_1")
    assert lines[4].startswith("3,5,1,7/5")
    assert err == ""


def test_moments_check_jumps_passes(capsys):
    code, out, err = run(capsys, "moments", "jumps", "--check",
                         "--nmax", "12", "--format", "csv")
    assert code == 0
    checks = err.splitlines()
    assert checks == [
        "check 7.1: pass [n=2..12]",
        "check 7.2: pass [n=2..12]",
        "check 7.3: pass [n=2..12]",
    ]


def test_moments_check_jumpdist_reports_sign_failure(capsys):
    code, out, err = run(capsys, "moments", "jumpdist", "--check",
                         "--nmax", "12", "--format", "csv")
    assert code == 1
    checks = err.splitlines()
    assert "check 8.1: pass [n=2..12]" in checks
    assert "check 8.2: pass [n=2..12]" in checks
    assert "check 8.4: pass [n=2..12]" in checks
    assert ("check 8.3: FAIL [n=2..12] (first mismatch n=4: "
            "sign -1 where positive is required)") in checks


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_moments_check_with_no_size_to_check_prints_no_check(capsys, nmax):
    # the closed forms start at n=2; an empty range is no check, not a pass
    code, out, err = run(capsys, "moments", "jumps", "--check",
                         "--nmax", nmax)
    assert (code, err) == (0, "")
    assert json.loads(out)["n_max"] == int(nmax)


def test_moments_json_default(capsys):
    code, out, _ = run(capsys, "moments", "jumpdist", "--nmax", "4",
                       "--max-moment", "2")
    assert code == 0
    data = json.loads(out)
    assert data["stat"] == "jumpdist"
    assert data["rows"][2]["raw"] == ["1/2", "1/2"]


def test_moments_bad_max_moment(capsys):
    code, _, err = run(capsys, "moments", "jumps", "--max-moment", "0")
    assert code == 2
    assert "max_moment" in err


def test_guess_variance(capsys):
    code, out, _ = run(capsys, "guess", "jumps", "--moment", "variance",
                       "--n-to", "30")
    assert code == 0
    data = json.loads(out)
    assert data["stat"] == "jumps"
    assert data["moment"] == {"kind": "central", "r": 2}
    assert data["points"] == {"from": 2, "to": 30, "holdout": 5}
    assert data["formula"]["text"] == "(n^2 - 1)/(8*n - 4)"
    assert data["degrees"] == [2, 1]
    assert data["limit"] == {"kind": "divergent", "value": None}


def test_guess_mean_jumpdist(capsys):
    code, out, _ = run(capsys, "guess", "jumpdist", "--moment", "mean",
                       "--n-from", "0", "--n-to", "20")
    assert code == 0
    data = json.loads(out)
    assert data["moment"] == {"kind": "raw", "r": 1}
    assert data["formula"]["text"] == "(n^2 - n)/(n + 2)"


def test_guess_scaled_odd_uses_squared_values(capsys):
    code, out, _ = run(capsys, "guess", "jumpdist", "--moment", "scaled:3",
                       "--n-to", "36")
    assert code == 0
    data = json.loads(out)
    assert data["moment"] == {"kind": "scaled_squared", "r": 3}
    assert data["points"]["from"] == 2
    assert data["formula"]["numerator"] == [0, 108, -72, -9, 9]
    assert data["formula"]["denominator"] == [-32, -48, 46, 30, 4]


def test_guess_bad_moment_spec(capsys):
    for spec in ("skew", "raw:0", "central:1", "scaled:x", "raw:"):
        code, _, err = run(capsys, "guess", "jumps", "--moment", spec)
        assert code == 2, spec
        assert "bad --moment" in err


@pytest.mark.parametrize("spec", ["raw:²", "central:²", "scaled:⁴"])
def test_guess_a_superscript_moment_order_is_a_usage_error(capsys, spec):
    # superscript digits are digits to str.isdigit but not to int()
    code, out, err = run(capsys, "guess", "jumps", "--moment", spec,
                         "--n-to", "20")
    assert (code, out) == (2, "")
    assert err.startswith(f"jumpstat: bad --moment {spec!r}: expected mean")


def test_guess_bad_range(capsys):
    code, _, err = run(capsys, "guess", "jumps", "--moment", "mean",
                       "--n-from", "10", "--n-to", "10")
    assert code == 2
    assert "--n-to" in err


def test_guess_refuses_a_negative_n_from_before_any_work(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(moments, "moment_table", never)
    code, out, err = run(capsys, "guess", "jumps", "--moment", "mean",
                         "--n-from", "-5", "--n-to", "20")
    assert (code, out, err) == (2, "", "jumpstat: --n-from must be >= 0\n")


def test_guess_unfittable_data_fails_cleanly(capsys):
    # jumps kurtosis needs total degree 6; a lower bound exhausts cleanly
    code, _, err = run(capsys, "guess", "jumps", "--moment", "scaled:4",
                       "--n-to", "20", "--max-total-degree", "3")
    assert code == 1
    assert "no rational function" in err


def test_guess_huge_max_total_degree_stops_at_the_data():
    # 8 fit points admit total degree 6 at most, so a bound of 10^9 must
    # end as fast as a small one instead of scanning every total
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "jumpstat.cli", "guess", "jumpdist",
         "--moment", "central:10", "--n-to", "14",
         "--max-total-degree", "1000000000"],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "jumpstat: no rational function up to total degree 1000000000 "
        "fits the data and the 5-point holdout\n")


def test_guess_negative_max_total_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "guess", "jumpdist", "--moment",
                         "central:10", "--n-to", "14",
                         "--max-total-degree", "-1")
    assert code == 2
    assert out == ""
    assert err == "jumpstat: max_total_degree must be >= 0\n"


def test_limits_filtered(capsys):
    code, out, _ = run(capsys, "limits", "--stat", "jumps")
    assert code == 0
    refs = json.loads(out)
    assert [r["theorem"] for r in refs] == ["7.1", "7.2", "7.3", "7.4", "7.5"]
    kurt = next(r for r in refs if r["theorem"] == "7.3")
    assert kurt["limit"] == {"kind": "finite", "value": "3"}
    code, out, _ = run(capsys, "limits")
    assert len(json.loads(out)) == 9


def test_env_default_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("JUMPSTAT_ORDER", "4")
    code, out, _ = run(capsys, "series", "f")
    assert code == 0
    assert json.loads(out)["order"] == 4
    code, out, _ = run(capsys, "series", "f", "--order", "2")
    assert json.loads(out)["order"] == 2


def test_invalid_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("JUMPSTAT_ORDER", "soon")
    code, _, err = run(capsys, "series", "f")
    assert code == 2
    assert "JUMPSTAT_ORDER" in err


@pytest.mark.parametrize("var, value, argv", [
    ("JUMPSTAT_FORMAT", "xml", ("moments", "jumps", "--nmax", "3")),
    ("JUMPSTAT_STAT", "foo", ("limits",)),
])
def test_env_value_outside_the_choices_is_usage_error(capsys, monkeypatch,
                                                      var, value, argv):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert var in err and repr(value) in err


@pytest.mark.parametrize("var, value, argv", [
    ("JUMPSTAT_FORMAT", "xml", ("limits", "--stat", "jumps")),
    ("JUMPSTAT_ORDER", "soon", ("series", "f", "--order", "3")),
    ("JUMPSTAT_CAP", "x", ("stats", ".")),
])
def test_env_value_of_an_unused_flag_is_ignored(capsys, monkeypatch,
                                                var, value, argv):
    # a variable is read only for the chosen subcommand's flags that argv
    # leaves out
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


def test_env_applies_to_moments_nmax(capsys, monkeypatch):
    monkeypatch.setenv("JUMPSTAT_NMAX", "3")
    code, out, _ = run(capsys, "moments", "jumps", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 5  # header + sizes 0..3


def _trace(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(out),
         *argv],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_benchmark_tracer_still_binds_the_layers(tmp_path):
    # perfbench/tracer.py rebinds layer functions by name; a refactor that
    # unbinds one of them must fail here, not only in the benchmark
    trace = _trace(tmp_path, "moments", "jumps", "--nmax", "6")
    for span in ("algebra.fixed_point", "algebra.sqrt", "genfunc.solve_H"):
        assert trace["spans"][span]["calls"] >= 1, span
    assert trace["counters"]["algebra.fixed_point.iterations"] == 7
    # moment_table must reach q_log_derivative_power through its
    # module-level name
    for span in ("moments.moment_table", "moments.q_log_derivative"):
        assert trace["spans"][span]["calls"] >= 1, span
    # the layers a traced cli-jumpdist run must reach through `verify 6`
    trace = _trace(tmp_path, "verify", "6", "--order", "4")
    for span in ("genfunc.verify", "genfunc.solve_K", "genfunc.solve_Jdepth",
                 "genfunc.solve_catalan", "algebra.inverse", "algebra.sqrt"):
        assert trace["spans"][span]["calls"] >= 1, span
    # the layers a traced cli-jumps run must reach through `verify 2`
    trace = _trace(tmp_path, "verify", "2", "--order", "4")
    for span in ("genfunc.verify", "genfunc.solve_F", "genfunc.solve_H",
                 "algebra.fixed_point", "algebra.mul", "algebra.sqrt"):
        assert trace["spans"][span]["calls"] >= 1, span
    # the layers of a traced cli-guess run; guess_rational must reach
    # fit_rational through its module-level name
    trace = _trace(tmp_path, "guess", "jumpdist", "--moment", "central:2",
                   "--n-to", "16", "--max-total-degree", "10")
    for span in ("guess.guess_rational", "guess.fit", "moments.moment_table",
                 "genfunc.solve_K"):
        assert trace["spans"][span]["calls"] >= 1, span


def _benchmark_workloads() -> dict:
    """``WORKLOADS`` of perfbench/run.py, imported read-only.  run.py
    imports its sibling modules by bare name, so perfbench/ is on sys.path
    for the import only, and the modules loaded from there are dropped.
    The tests' own ``reference`` module is set aside meanwhile, so that
    run.py binds perfbench's."""
    bench = REPO / "perfbench"
    tests_reference = sys.modules.pop("reference", None)
    before = set(sys.modules)
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      bench / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        return run.WORKLOADS
    finally:
        sys.path.remove(str(bench))
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or
                    "").parent == bench:
                del sys.modules[name]
        if tests_reference is not None:
            sys.modules["reference"] = tests_reference


def test_every_workload_records_the_spans_it_requires(tmp_path):
    # a traced benchmark run fails when a required span records no call;
    # the tiny jobs, traced as the benchmark traces them, must cover them
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    out = tmp_path / "trace.json"
    for name, workload in _benchmark_workloads().items():
        called = set()
        for job in workload.tiny:
            if job.is_cli:
                argv = [REPO / "perfbench" / "tracer.py", out, *job.argv]
            else:
                argv = [REPO / "perfbench" / "session.py", job.argv[1], "7",
                        out]
            out.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, *argv], env=env, cwd=REPO,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == job.exit, (job.argv, proc.stderr)
            called |= {span for span, agg in
                       json.loads(out.read_text())["spans"].items()
                       if agg["calls"]}
        assert not set(workload.layers) - called, name


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # every workload's tiny jobs, untraced and traced: every span the
    # tracer binds by name and every metric of BENCHMARK.json
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


@pytest.mark.parametrize("argv, read", [
    (("enumerate", "10"), lambda out: out.readline()),
    # one 100 kB line, more than a pipe holds
    (("series", "K", "--order", "60"), lambda out: out.read(5)),
    # the first tree is the comb, its right spine 2000 vertices long
    (("enumerate", "2000", "--cap", "2000"), lambda out: out.read(20)),
])
def test_a_closed_stdout_exits_141_without_a_traceback(argv, read):
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen([sys.executable, "-m", "jumpstat.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    assert read(proc.stdout)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# --- cost caps --------------------------------------------------------------

@pytest.mark.parametrize("argv, flag, cap", [
    (("series", "F", "--order", "100000"), "--order", genfunc.ORDER_CAPS["F"]),
    (("series", "f", "--order", "100000"), "--order", genfunc.ORDER_CAPS["f"]),
    (("verify", "1", "--order", "100000"), "--order", genfunc.ORDER_CAPS["F"]),
    (("verify", "2", "--order", "100000"), "--order", genfunc.ORDER_CAPS["F"]),
    (("verify", "3", "--order", "100000"), "--order", genfunc.ORDER_CAPS["H"]),
    (("verify", "6", "--order", "100000"), "--order", genfunc.ORDER_CAPS["K"]),
    (("moments", "jumps", "--nmax", "100000"), "--nmax", genfunc.ORDER_CAPS["H"]),
    (("moments", "jumpdist", "--nmax", "100000"), "--nmax",
     genfunc.ORDER_CAPS["K"]),
    (("guess", "jumpdist", "--moment", "mean", "--n-to", "100000"), "--n-to",
     genfunc.ORDER_CAPS["K"]),
    (("moments", "jumps", "--nmax", "5", "--max-moment", "100000"),
     "--max-moment", moments.MOMENT_CAP),
    (("guess", "jumps", "--moment", "central:100000", "--n-to", "30"),
     "R in --moment", moments.MOMENT_CAP),
])
def test_a_huge_order_exits_3_at_once(argv, flag, cap):
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-m", "jumpstat.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert f"cap of order {cap}; {flag} must be at most {cap}" in proc.stderr
    # the refusal comes before any series work: well under a second of CPU
    code = ("import sys, time\nfrom jumpstat.cli import main\n"
            "start = time.process_time()\nassert main(sys.argv[1:]) == 3\n"
            "print(time.process_time() - start)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1


def _solvers_for(argv: list[str]) -> tuple[str, int]:
    """The series a benchmark CLI job solves and its order."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    if argv[0] == "verify":
        return {"2": "FH", "6": "KJf"}[argv[1]], int(flags["--order"])
    size = int(flags.get("--nmax", flags.get("--n-to", 0)))
    return {"jumps": "H", "jumpdist": "KJf"}[argv[1]], size


def _moment_order(argv: list[str]) -> int:
    """The moment order a benchmark CLI job tabulates."""
    args = cli._build_parser().parse_args(argv)
    if argv[0] == "moments":
        return args.max_moment
    return cli._parse_moment_spec(args.moment)[1]


def test_the_default_caps_admit_every_benchmark_job_and_tier1_size():
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text())
    needs = []
    # the paper session's tables and tier-1's largest tables are to order 10
    moment_orders = [10]
    for key in expected:
        argv = key.split()
        if argv[0] == "session":
            continue
        needs.append(_solvers_for(argv))
        if argv[0] in ("moments", "guess"):
            moment_orders.append(_moment_order(argv))
    assert max(moment_orders) <= moments.MOMENT_CAP, moment_orders
    # the paper session solves every series at order 32 (identity 1 at 11)
    needs.append(("fFHJK", 32))
    # the largest orders the tier-1 suite solves
    needs += [("FH", 60), ("H", 100), ("KJf", 200)]
    for names, order in needs:
        for name in names:
            assert order <= genfunc.ORDER_CAPS[name], (name, order)


# --- byte identity with the benchmark's recorded outputs --------------------

# the benchmark's smoke-test sizes, every full-size CLI job it records and
# the paper session at both sizes
RECORDED_JOBS = [
    "moments jumps --nmax 8 --max-moment 10 --check --format csv",
    "verify 2 --order 8",
    "moments jumpdist --nmax 12 --max-moment 10 --check",
    "verify 6 --order 12",
    "guess jumpdist --moment central:2 --n-to 16 --max-total-degree 10",
    "verify 2 --order 40",
    "verify 6 --order 200",
    "moments jumps --nmax 40 --max-moment 10 --check --format csv",
    "moments jumpdist --nmax 200 --max-moment 10 --check",
    "guess jumpdist --moment central:10 --n-to 60 --max-total-degree 40",
    "session tiny",
    "session full",
]


@pytest.mark.parametrize("job", RECORDED_JOBS)
def test_cli_output_is_byte_identical_to_the_benchmark_record(job):
    record = json.loads((REPO / "perfbench" / "expected.json").read_text())[job]
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    argv = job.split()
    if argv[0] == "session":   # its output is the same for every seed
        argv = [str(REPO / "perfbench" / "session.py"), argv[1], "7"]
    else:
        argv = ["-m", "jumpstat.cli", *argv]
    proc = subprocess.run([sys.executable, *argv],
                          env=env, cwd=REPO, capture_output=True, timeout=120)
    assert proc.returncode == record["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == record["stdout_sha256"]
    assert hashlib.sha256(proc.stderr).hexdigest() == record["stderr_sha256"]


def run_recorded(job: str) -> dict:
    """Exit code and stdout/stderr sha256 of one ``cli.main`` run, with
    the environment cleared but for the job's leading VAR=value words."""
    words = shlex.split(job)
    env = {"COLUMNS": "80"}   # argparse wraps --help to the terminal width
    while "=" in words[0]:
        var, value = words.pop(0).split("=", 1)
        env[var] = value
    with mock.patch.dict(os.environ, env, clear=True):
        code, out, err = run_captured(words)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.encode()).hexdigest()}


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: --help, usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CLI_RECORD = json.loads((REPO / "tests" / "cli_record.json").read_text())


@pytest.mark.parametrize("job", CLI_RECORD)
def test_cli_output_is_byte_identical_to_its_record(job):
    assert run_recorded(job) == CLI_RECORD[job]


@pytest.mark.parametrize("job", [
    "series K --order -1",
    "series J --order 401",
    "verify 1 --order 17 --oracle-cap 17",
    "stats '[.'",
])
def test_a_fresh_process_refuses_as_recorded_without_the_moment_layers(job):
    """Usage errors and refused caps of commands that load neither
    ``moments`` nor ``guess``: every ``except`` clause of ``main`` that
    the error passes must be evaluable in a process without them, which
    the in-process records cannot see once another test has loaded both."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-m", "jumpstat.cli",
                           *shlex.split(job)],
                          env=env, capture_output=True, timeout=60)
    assert {"exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
            } == CLI_RECORD[job], proc.stderr


# --- the CLI contract -------------------------------------------------------

@st.composite
def moment_argv(draw) -> list[str]:
    """argv of ``moments`` or ``guess`` from the edges of their sizes and
    moment orders."""
    command = draw(st.sampled_from(["moments", "guess"]))
    stat = draw(st.sampled_from(moments.STATS))
    r = draw(st.sampled_from([0, 1, 2, moments.MOMENT_CAP,
                              moments.MOMENT_CAP + 1]))
    if command == "moments":
        argv = [command, stat, "--max-moment", str(r)]
        argv += draw(st.sampled_from([[], ["--format", "json"],
                                      ["--format", "csv"]]))
        argv += draw(st.sampled_from([[], ["--check"]]))
        admitted, flag = 1 <= r <= moments.MOMENT_CAP, "--nmax"
    else:
        kind = draw(st.sampled_from(["raw", "central", "scaled"]))
        argv = [command, stat, "--moment", f"{kind}:{r}"]
        admitted = (kind == "raw" or r >= 2) and r <= moments.MOMENT_CAP
        flag = "--n-to"
    # a size above 41 only where the request is refused: an admitted one
    # at the cap costs seconds
    cap = genfunc.ORDER_CAPS["H" if stat == "jumps" else "K"]
    sizes = [-1, 0, 1, 2, 41, cap + 1, 10 ** 20] + ([] if admitted else [cap])
    return argv + [flag, str(draw(st.sampled_from(sizes)))]


@given(argv=moment_argv())
@settings(max_examples=150, deadline=None)
def test_moments_and_guess_keep_the_cli_contract(argv):
    caches = [*genfunc.SOLVERS.values(), *moments._TABLES.values()]
    misses = [cache.cache_info().misses for cache in caches]
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
    if code == 3:   # refused before any solver or table work
        assert [cache.cache_info().misses for cache in caches] == misses


_VALID_TREES = [".", "[.,.]", "[[.,.],.]", "[.,[.,.]]", "[[.,.],[.,.]]"]


@st.composite
def edited_tree(draw) -> str:
    """A valid tree text, kept or with one character deleted, inserted or
    replaced."""
    text = draw(st.sampled_from(_VALID_TREES))
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from("[].,x ١"))
    return draw(st.sampled_from([text, text[:i] + text[i + 1:],
                                 text[:i] + c + text[i:],
                                 text[:i] + c + text[i + 1:]]))


def _sizes(cap: int, admitted_max: int) -> list[int]:
    """-1, 0, 1, 2, the cap, cap + 1 and 10^20, less the admitted sizes
    above ``admitted_max``, which would cost more than a unit test may."""
    return [n for n in (-1, 0, 1, 2, cap, cap + 1, 10 ** 20)
            if n <= admitted_max or n > cap]


# defaults no flag accepts: not integers, not a choice, or negative
_BAD_ENV = ["x", "", "1.5", "²", "0x10", "-1"]
_ENV_FLAGS = ["CAP", "ORDER", "ORACLE_CAP", "MAX_MOMENT", "NMAX", "FORMAT",
              "N_FROM", "N_TO", "HOLDOUT", "MAX_TOTAL_DEGREE", "STAT"]


@st.composite
def other_argv(draw) -> tuple[list[str], dict[str, str]]:
    """argv of ``stats``, ``enumerate``, ``series``, ``verify`` and
    ``limits``, or of ``guess`` with a non-ASCII moment order, and at most
    one bad ``JUMPSTAT_*`` default."""
    command = draw(st.sampled_from(["stats", "enumerate", "series", "verify",
                                    "limits", "guess"]))
    if command == "stats":
        argv = [command, draw(edited_tree())]
    elif command == "enumerate":
        cap = draw(st.sampled_from([None, -1, 0, 1, 2, STREAMING_CAP,
                                    STREAMING_CAP + 1, 10 ** 20]))
        n = draw(st.sampled_from(_sizes(STREAMING_CAP if cap is None else cap,
                                        6)))
        argv = [command, str(n)] + ([] if cap is None else ["--cap", str(cap)])
        argv += draw(st.sampled_from([[], ["--with-stats"]]))
    elif command == "series":
        name = draw(st.sampled_from(sorted(cli.SERIES_ALIASES)))
        cap = genfunc.ORDER_CAPS[cli.SERIES_ALIASES[name]]
        order = draw(st.sampled_from([None, *_sizes(cap, 2)]))
        argv = [command, name] + ([] if order is None else
                                  ["--order", str(order)])
    elif command == "verify":
        theorem = draw(st.sampled_from([*genfunc.THEOREM_IDS, "7"]))
        cap = genfunc.ORDER_CAPS[{"0": "f", "1": "F", "2": "F", "3": "H",
                                  "4": "J", "5": "J", "6": "K"}.get(theorem, "f")]
        argv = [command, theorem, "--order",
                str(draw(st.sampled_from(_sizes(cap, 2))))]
        # the oracle enumerates min(order, oracle cap) <= 2 when admitted
        oracle = draw(st.sampled_from([None, *_sizes(DEFAULT_ENUMERATION_CAP,
                                                     8)]))
        argv += [] if oracle is None else ["--oracle-cap", str(oracle)]
    elif command == "limits":
        argv = [command] + draw(st.sampled_from(
            [[], ["--stat", "all"], ["--stat", "jumps"], ["--stat", "x"]]))
    else:
        spec = draw(st.sampled_from(["raw:١", "raw:²", "central:٣",
                                     "scaled:⁴", "raw:１", "mean:١"]))
        n_to = draw(st.sampled_from([-1, 0, 1, 2, 12, 10 ** 20]))
        argv = [command, draw(st.sampled_from(moments.STATS)), "--moment",
                spec, "--n-to", str(n_to)]
    env = draw(st.sampled_from([{}, *({f"JUMPSTAT_{flag}": value}
                                      for flag in _ENV_FLAGS
                                      for value in _BAD_ENV)]))
    return argv, env


@given(case=other_argv())
@settings(max_examples=200, deadline=None)
def test_every_other_subcommand_keeps_the_cli_contract(case):
    argv, env = case
    tables = list(moments._TABLES.values())
    solvers = list(genfunc.SOLVERS.values())
    table_misses = [cache.cache_info().misses for cache in tables]
    solver_misses = sum(cache.cache_info().misses for cache in solvers)
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith("JUMPSTAT_")}
    with mock.patch.dict(os.environ, {**clean, **env}, clear=True):
        code, out, err = run_captured(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
    if code == 3:
        # refused before any work: no table is built and no solver is
        # called, so no cache counts a miss
        assert [cache.cache_info().misses for cache in tables] == table_misses
        assert sum(cache.cache_info().misses
                   for cache in solvers) == solver_misses
