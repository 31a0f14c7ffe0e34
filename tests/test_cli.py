from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jumpstat import cli, genfunc, moments
from jumpstat.cli import main
from jumpstat.trees import catalan

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

    monkeypatch.setitem(cli._SOLVERS, "H", broken)
    code, out, err = run(capsys, "series", "H", "--order", "4")
    assert code == 1
    assert out == ""
    assert err == "jumpstat: series is corrupt\n"


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


def test_guess_bad_range(capsys):
    code, _, err = run(capsys, "guess", "jumps", "--moment", "mean",
                       "--n-from", "10", "--n-to", "10")
    assert code == 2
    assert "--n-to" in err


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
    for span in ("algebra.fixed_point", "algebra.mul", "algebra.sqrt",
                 "genfunc.solve_H"):
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
    # the layers of a traced cli-guess run; guess_rational must reach
    # fit_rational through its module-level name
    trace = _trace(tmp_path, "guess", "jumpdist", "--moment", "central:2",
                   "--n-to", "16", "--max-total-degree", "10")
    for span in ("guess.guess_rational", "guess.fit", "moments.moment_table",
                 "genfunc.solve_K"):
        assert trace["spans"][span]["calls"] >= 1, span


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

# the benchmark's smoke-test sizes, plus two full-size jobs that take under
# a second each
RECORDED_JOBS = [
    "moments jumps --nmax 8 --max-moment 10 --check --format csv",
    "verify 2 --order 8",
    "moments jumpdist --nmax 12 --max-moment 10 --check",
    "verify 6 --order 12",
    "guess jumpdist --moment central:2 --n-to 16 --max-total-degree 10",
    "verify 2 --order 40",
    "verify 6 --order 200",
]


@pytest.mark.parametrize("job", RECORDED_JOBS)
def test_cli_output_is_byte_identical_to_the_benchmark_record(job):
    import hashlib

    record = json.loads((REPO / "perfbench" / "expected.json").read_text())[job]
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-m", "jumpstat.cli", *job.split()],
                          env=env, cwd=REPO, capture_output=True, timeout=120)
    assert proc.returncode == record["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == record["stdout_sha256"]
    assert hashlib.sha256(proc.stderr).hexdigest() == record["stderr_sha256"]
