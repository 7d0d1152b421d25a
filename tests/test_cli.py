import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mspec.arith
import mspec.cli
import mspec.learning
import mspec.spectral
from mspec import (CharacterIndex, char_values, correlation,
                   csq_bad_event_rate, group_spectrum, parse_shape, sieve)
from mspec.alignment import GRAM_CAP
from mspec.learning import NGD_X_CAP
from mspec.spectral import SPECTRUM_CAP
from mspec.cli import build_parser, run_command

SUBCOMMANDS = [
    "sieve", "spectrum", "correlate", "align", "gram-oracle", "katai",
    "bounds-check", "digital-pnt", "lambda-balance", "covariance", "ngd",
    "csq", "decay-table",
]


def run_json(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_every_subcommand_has_help(capsys):
    parser = build_parser()
    for name in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--seed" in help_text or name == "covariance"


def test_spectrum_contract(capsys):
    code, rec = run_json(["spectrum", "--shape", "2^10", "--function",
                          "mobius", "--top", "5"], capsys)
    assert code == 0
    assert rec["command"] == "spectrum"
    assert len(rec["result"]["top"]) == 5
    mags = [t["magnitude"] for t in rec["result"]["top"]]
    assert mags == sorted(mags, reverse=True)


@pytest.mark.parametrize("text,table,top", [
    ("2^2*3^2*5", "character", 7),   # two nonzero magnitudes, X - 2 tied zeros
    ("2^6", "mobius", 12),
    ("3^4", "liouville", 100),       # --top larger than X
    ("2^17", "character", 5),        # zeros tied across every chunk boundary
])
def test_spectrum_top_matches_stable_sort(text, table, top, capsys, monkeypatch):
    shape = parse_shape(text)
    if table == "character":
        chi = CharacterIndex.from_flat(37, shape)
        values = np.real(char_values(chi, shape))
        monkeypatch.setattr(mspec.cli, "_function_values", lambda name, X, mem_cap: values)
        table = "mobius"
    else:
        values = mspec.cli._function_values(table, shape.X)
    code, rec = run_json(["spectrum", "--shape", text, "--function", table,
                          "--top", str(top)], capsys)
    assert code == 0
    coeffs = group_spectrum(values, shape).coeffs
    mags = np.hypot(coeffs.real, coeffs.imag)  # the plot's magnitude column
    want = np.argsort(-mags, kind="stable")[:top]
    assert [t["flat"] for t in rec["result"]["top"]] == want.tolist()


def test_digital_pnt_contract(capsys):
    code, rec = run_json(["digital-pnt", "--p", "3", "--d", "11",
                          "--L", "01000000000", "--b", "0"], capsys)
    assert code == 0
    res = rec["result"]
    assert res["singular_series"]["value"] == "1/1"
    assert res["count"] > 0 and res["rel_error"] < 0.2


def test_align_contract(capsys):
    code, rec = run_json(["align", "--shape", "3^6", "--function",
                          "liouville", "--group", "full"], capsys)
    assert code == 0
    assert rec["result"]["method"] == "full_group"
    assert rec["result"]["value"] > 0
    assert "digits" in rec["result"]["witness"]


def test_exit_codes(capsys):
    assert run_command(["spectrum", "--shape", "nope"]) == 2
    capsys.readouterr()
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()
    # resource error: spectrum over the memory cap
    assert run_command(["sieve", "--limit", "100", "--mem-cap", "10"]) == 3
    capsys.readouterr()


def test_deterministic_payload(capsys):
    argv = ["spectrum", "--shape", "2^8", "--function", "liouville",
            "--top", "3", "--seed", "5"]
    _, rec1 = run_json(argv, capsys)
    _, rec2 = run_json(argv, capsys)
    rec1.pop("wall_time")
    rec2.pop("wall_time")
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2, sort_keys=True)


def test_out_file(tmp_path, capsys):
    path = str(tmp_path / "rec.json")
    code = run_command(["correlate", "--shape", "2^6", "--char", "3",
                        "--function", "mobius", "--out", path])
    assert code == 0
    with open(path) as fh:
        rec = json.load(fh)
    assert rec["command"] == "correlate"
    assert "magnitude" in rec["result"]


def test_plot_data_csv(tmp_path, capsys):
    path = str(tmp_path / "decay.csv")
    code = run_command(["decay-table", "--dims", "4,6,8", "--function",
                        "mobius", "--plot-data", path])
    assert code == 0
    capsys.readouterr()
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "d,X,max_coefficient"
    assert len(lines) == 4
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)  # numeric columns only



def test_sieve_plot_data_streams_its_rows(tmp_path, capsys):
    """The rows go to the file as they are formed: the parent built a list
    of every (n, value) pair first, about 12 MiB here."""
    path = str(tmp_path / "sieve.csv")
    peaks = []
    for call in (lambda: sieve("mobius", 10**5),
                 lambda: run_command(["sieve", "--limit", str(10**5), "--plot-data", path])):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= peaks[0] + (1 << 20)
    with open(path) as fh:
        assert [next(fh) for _ in range(3)] == ["n,value\n", "0,0\n", "1,1\n"]


def reference_csv(header, rows) -> str:
    """A --plot-data file by the per-row rule: str for an int, .17g for a
    float, the magnitude of a coefficient by the scalar abs(c)."""
    return "".join(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def plot_rows(argv, capsys):
    """The reference header and rows of the --plot-data file of argv."""
    command = argv[0]
    flag = dict(zip(argv[1::2], argv[2::2]))
    kind = flag.get("--function", "mobius")
    if command == "sieve":
        values = mspec.cli._function_values(kind, int(flag["--limit"]))
        return ["n", "value"], [(n, float(v)) for n, v in enumerate(values)]
    if command == "spectrum":
        shape = parse_shape(flag["--shape"])
        coeffs = group_spectrum(mspec.cli._function_values(kind, shape.X), shape).coeffs
        return (["flat_index", "re", "im", "magnitude"],
                [(i, float(c.real), float(c.imag), float(abs(c))) for i, c in enumerate(coeffs)])
    if command == "covariance" and flag.get("--mode") == "explicit":
        eigen = mspec.learning.binary_mult_covariance(int(flag["--X"]), "explicit")["eigen"]
        return ["rank", "eigenvalue"], [(r, float(v)) for r, v in enumerate(eigen)]
    if command == "covariance":
        X = int(flag["--X"])
        mu = sieve("mobius", X + 1).values
        return ["a", "eigenvalue"], [(1, 0.0)] + [(a, math.isqrt(X // a) / X)
                                                  for a in range(2, X + 1) if mu[a]]
    _, rec = run_json(argv, capsys)  # decay-table: the rows of its record
    return ["d", "X", "max_coefficient"], [tuple(row) for row in rec["result"]["table"]]


@pytest.mark.parametrize("argv", [
    ["sieve", "--limit", "3000"],
    ["sieve", "--limit", "3000", "--function", "von-mangoldt"],
    ["spectrum", "--shape", "3^7"],                   # np.abs differs from abs(c) here
    ["spectrum", "--shape", "2^2*3^2*5*7", "--function", "von-mangoldt"],
    ["covariance", "--X", "5000"],
    ["covariance", "--X", "300", "--mode", "explicit"],
    ["decay-table", "--dims", "4,6,8", "--function", "liouville"],
], ids=" ".join)
def test_plot_data_matches_the_per_row_rule(argv, tmp_path, capsys):
    path = tmp_path / "plot.csv"
    assert run_command([*argv, "--plot-data", str(path), "--out", str(tmp_path / "rec")]) == 0
    assert path.read_text() == reference_csv(*plot_rows(argv, capsys))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--shape", "2^16"],
    ["covariance", "--X", "100000"],
], ids=" ".join)
def test_plot_data_streams_its_rows(argv, tmp_path, capsys):
    """The writer holds one block of rows at a time: a run with --plot-data
    peaks within 1 MiB of the same run without it."""
    peaks = []
    for extra in ([], ["--plot-data", str(tmp_path / "plot.csv")]):
        tracemalloc.start()
        try:
            assert run_command([*argv, *extra, "--out", str(tmp_path / "rec")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (1 << 20)


PLOT_COMMANDS = {"sieve", "spectrum", "covariance", "decay-table"}
MINIMAL_ARGV = {
    "sieve": ["--limit", "10"], "spectrum": ["--shape", "2^3"],
    "correlate": ["--shape", "2^3", "--char", "1"], "align": ["--shape", "2^3"],
    "gram-oracle": ["--shape", "2^3"], "katai": ["--shape", "3^2"],
    "bounds-check": ["--shape", "3^2", "--char", "1", "--check", "l1"],
    "digital-pnt": ["--p", "3", "--d", "3", "--L", "010", "--b", "0"],
    "lambda-balance": ["--shape", "3^2"], "covariance": ["--X", "10"],
    "ngd": ["--shape", "2^3", "--trials", "1", "--T", "1"],
    "csq": ["--shape", "2^3", "--samples", "1"], "decay-table": ["--dims", "2,3"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_plot_data_only_where_a_plot_is_written(command, tmp_path, capsys):
    path = tmp_path / "plot.csv"
    code = run_command([command, *MINIMAL_ARGV[command], "--plot-data", str(path)])
    captured = capsys.readouterr()
    if command in PLOT_COMMANDS:
        assert code == 0 and path.read_text().count("\n") >= 2
    else:
        assert code == 2 and not path.exists()
        assert "--plot-data" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--plot-data", "--dump"])
def test_unwritable_output_path_exits_2(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "file"
    assert run_command(["sieve", "--limit", "10", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err and "Traceback" not in captured.err


def test_covariance_cli(capsys):
    code, rec = run_json(["covariance", "--X", "100", "--mode", "explicit"],
                         capsys)
    assert code == 0
    assert abs(rec["result"]["op_norm"] - rec["result"]["op_norm_formula"]) < 1e-9


def test_bounds_check_cli(capsys):
    code, rec = run_json(["bounds-check", "--shape", "3^5", "--char", "7",
                          "--check", "linf"], capsys)
    assert code == 0 and rec["result"]["ok"]
    code, rec = run_json(["bounds-check", "--shape", "3^5", "--char", "7",
                          "--check", "interval", "--lo", "0", "--hi", "81"],
                         capsys)
    assert code == 0 and rec["result"]["sum"] > 0


def test_bounds_check_ap_missing_flag(capsys):
    base = ["bounds-check", "--shape", "3^5", "--char", "7", "--check", "ap"]
    assert run_command(base + ["--residues", "0"]) == 2
    assert "--gamma" in capsys.readouterr().err
    assert run_command(base + ["--gamma", "0"]) == 2
    assert "--residues" in capsys.readouterr().err
    code, rec = run_json(base + ["--gamma", "0", "--residues", "0"], capsys)
    assert code == 0 and rec["result"]["ap_sum"] > 0


def test_top_must_be_positive(capsys):
    for top in ("0", "-3"):
        assert run_command(["spectrum", "--shape", "2^4", "--top", top]) == 2
        assert capsys.readouterr().out == ""


def test_katai_cli(capsys):
    code, rec = run_json(["katai", "--shape", "3^5", "--function", "mobius"],
                         capsys)
    assert code == 0
    assert rec["result"]["satisfied"]


def test_katai_cli_refuses_a_budget_below_x(capsys):
    assert run_command(["katai", "--shape", "3^5", "--budget", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err
    assert "Traceback" not in captured.err


def test_katai_refuses_the_budget_before_it_sieves(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved a table for a budget below X")

    monkeypatch.setattr(mspec.cli, "sieve", refuse)
    assert run_command(["katai", "--shape", "2^24"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget 10000000 is below X = 16777216" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["3^7", "2^2*3^2*5*7", "3^9"])
def test_spectrum_top_agrees_with_its_plot(text, tmp_path, capsys):
    """The record's top 200 are the plot's 200 largest magnitudes, ties to
    the smaller index, with the same values: np.abs, which differs from
    np.hypot in the last bit on about a third of them, only picks the
    candidates."""
    path = tmp_path / "plot.csv"
    code, rec = run_json(["spectrum", "--shape", text, "--top", "200",
                          "--plot-data", str(path)], capsys)
    assert code == 0
    mags = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3)
    order = np.argsort(-mags, kind="stable")[:200]
    top = rec["result"]["top"]
    assert [t["flat"] for t in top] == order.tolist()
    assert [t["magnitude"] for t in top] == mags[order].tolist()


def test_seed_recorded(capsys):
    code, rec = run_json(["csq", "--shape", "2^6", "--tau", "0.5", "--q", "2",
                          "--samples", "5", "--seed", "42"], capsys)
    assert code == 0
    assert rec["seed"] == 42


def test_csq_rate_matches_per_sample_strategies(capsys):
    shape = parse_shape("3^5")
    values = mspec.cli._function_values("liouville", shape.X)
    want = csq_bad_event_rate(values, shape, tau=0.1, q=4, samples=40, seed=3)
    assert 0.0 < want["empirical_rate"] < 1.0
    code, rec = run_json(["csq", "--shape", "3^5", "--function", "liouville",
                          "--tau", "0.1", "--q", "4", "--samples", "40",
                          "--seed", "3"], capsys)
    assert code == 0
    assert rec["result"]["empirical_rate"] == want["empirical_rate"]


@pytest.mark.parametrize("text", ["7", "2*3"])
def test_ngd_runs_on_one_digit_and_one_digit_per_block(text, capsys):
    code, rec = run_json(["ngd", "--shape", text, "--trials", "3", "--T", "5"], capsys)
    assert code == 0
    assert len(rec["result"]["final_losses"]) == 3


@pytest.mark.parametrize("argv,flag", [
    (["csq", "--shape", "2^4", "--samples", "0"], "--samples"),
    (["ngd", "--shape", "2^4", "--arch", "0"], "--arch"),
    (["ngd", "--shape", "2^4", "--arch", "-2"], "--arch"),
    (["ngd", "--shape", "2^4", "--arch", "4,0"], "--arch"),
    (["csq", "--shape", "2^3", "--q", "-2", "--samples", "2"], "--q"),
    (["csq", "--shape", "2^4", "--tau", "nan"], "--tau"),
    (["ngd", "--shape", "2^4", "--R", "inf"], "--R"),
    (["ngd", "--shape", "2^4", "--eta", "nan"], "--eta"),
    (["ngd", "--shape", "2^4", "--tau", "-inf"], "--tau"),
    (["ngd", "--shape", "2^4", "--eps", "NaN"], "--eps"),
    (["katai", "--shape", "3^3", "--delta", "inf"], "--delta"),
    (["katai", "--shape", "3^3", "--delta", "x"], "--delta"),
    (["csq", "--shape", "2^4", "--tau", "0"], "--tau"),
    (["csq", "--shape", "2^4", "--tau", "-1"], "--tau"),
    (["digital-pnt", "--p", "3", "--d", "4", "--L", "5000", "--b", "1"], "--L"),
    (["digital-pnt", "--p", "3", "--d", "4", "--L", "1000", "--b", "7"], "--b"),
])
def test_nonpositive_counts_rejected(argv, flag, capsys):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err



def test_ngd_divergence_exits_2(capsys):
    """A step so large that the loss overflows is refused, naming --eta,
    instead of a record with a NaN loss (which is not JSON)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow notices
        code = run_command(["ngd", "--shape", "2^4", "--eta", "1e308", "--T", "3",
                            "--trials", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eta" in captured.err and "Traceback" not in captured.err


def test_ngd_noise_divergence_names_tau_without_warnings(capsys):
    """Gaussian noise of a huge --tau overflows the parameters: exit 2
    naming --tau, and numpy raises no RuntimeWarning on the way."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(["ngd", "--shape", "2^4", "--T", "2", "--trials", "1",
                            "--tau", "1e200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tau" in captured.err and "Traceback" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv,flag", [
    (["spectrum", "--shape", "2^x"], "--shape"),
    (["spectrum", "--shape", "4^2"], "--shape"),
    (["decay-table", "--dims", "10,x"], "--dims"),
    (["decay-table", "--dims", "10,0"], "--dims"),
    (["align", "--shape", "2^3", "--group", "subgroup", "--generators", "1,a"],
     "--generators"),
    (["bounds-check", "--shape", "3^5", "--char", "7", "--check", "ap",
      "--gamma", "x", "--residues", "0"], "--gamma"),
    (["bounds-check", "--shape", "3^5", "--char", "7", "--check", "ap",
      "--gamma", "0", "--residues", "0,y"], "--residues"),
    (["digital-pnt", "--p", "3", "--d", "4", "--L", "0100", "--b", "x"], "--b"),
    (["ngd", "--shape", "2^4", "--seed", "-1"], "--seed"),
    (["csq", "--shape", "2^4", "--seed", "-1"], "--seed"),
    (["sieve", "--limit", "10", "--mem-cap", "0"], "--mem-cap"),
])
def test_malformed_lists_and_shapes_fail_in_the_parser(argv, flag, capsys):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err and "Traceback" not in captured.err


def test_parse_shape_names_the_bad_factor():
    from mspec.errors import ArgumentError

    with pytest.raises(ArgumentError, match=r"'3\^e'.*'2\^2\*3\^e'"):
        parse_shape("2^2*3^e")


def test_align_generators_parse_as_integers(capsys):
    code, rec = run_json(["align", "--shape", "2^3", "--group", "subgroup",
                          "--generators", "1,2"], capsys)
    assert code == 0 and rec["params"]["generators"] == [1, 2]
    code, rec = run_json(["align", "--shape", "2^3", "--group", "subgroup"], capsys)
    assert code == 0 and rec["params"]["generators"] == []


def test_nonpositive_counts_rejected_by_library():
    from mspec import MlpModel
    from mspec.errors import ArgumentError

    shape = parse_shape("2^4")
    with pytest.raises(ArgumentError, match="samples"):
        csq_bad_event_rate(np.ones(shape.X), shape, 0.1, 2, 0)
    for hidden in ([0], [4, -2]):
        with pytest.raises(ArgumentError, match="widths"):
            MlpModel(shape, hidden)


def test_program_errors_are_not_exit_codes(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a program bug")

    monkeypatch.setattr(mspec.cli, "sieve", broken)
    with pytest.raises(ValueError, match="a program bug"):
        run_command(["sieve", "--limit", "10"])


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mspec.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    bad = subprocess.run([sys.executable, "-m", "mspec.cli", "sieve", "--limit", "10",
                          "--no-such-flag"], env=env, capture_output=True, text=True)
    assert bad.returncode == 2
    assert "--no-such-flag" in bad.stderr and "Traceback" not in bad.stderr
    ok = subprocess.run([sys.executable, "-m", "mspec.cli", "sieve", "--function", "mobius",
                         "--limit", "10"], env=env, capture_output=True, text=True)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["command"] == "sieve"


@pytest.mark.parametrize("argv,cap", [
    (["spectrum", "--shape", "2^27"], SPECTRUM_CAP),
    (["align", "--shape", "2^27"], SPECTRUM_CAP),
    (["csq", "--shape", "2^27"], SPECTRUM_CAP),
    (["katai", "--shape", "2^27"], SPECTRUM_CAP),
    (["decay-table", "--dims", "10,27"], SPECTRUM_CAP),
    (["ngd", "--shape", "2^21"], NGD_X_CAP),
    (["gram-oracle", "--shape", "2^13"], GRAM_CAP),
], ids=["spectrum", "align", "csq", "katai", "decay-table", "ngd", "gram-oracle"])
def test_caps_refuse_before_the_sieve(argv, cap, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved a table that the command must refuse")

    monkeypatch.setattr(mspec.cli, "sieve", refuse)
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap {cap}" in captured.err and "Traceback" not in captured.err


# commands that sieve or stream with no CLI table, and the entries they read
STREAMING_RUNS = [
    (["digital-pnt", "--p", "3", "--d", "7", "--L", "0100000", "--b", "1"], 3**7),
    (["lambda-balance", "--shape", "3^7", "--char", "5"], 3**7),
    (["covariance", "--X", "1000"], 1001),
    (["covariance", "--X", "30", "--mode", "explicit"], 30**2 + 1),
]
STREAMING_IDS = ["digital-pnt", "lambda-balance", "covariance-formula", "covariance-explicit"]


@pytest.mark.parametrize("argv,entries", STREAMING_RUNS, ids=STREAMING_IDS)
def test_mem_cap_refuses_streaming_commands_before_they_sieve(argv, entries, capsys,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved for a run that --mem-cap must refuse")

    for module, name in ((mspec.arith, "_segment_primes"), (mspec.arith, "sieve"),
                         (mspec.learning, "sieve"), (mspec.cli, "sieve")):
        monkeypatch.setattr(module, name, refuse)
    assert run_command(argv + ["--mem-cap", str(entries - 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{entries} entries exceed --mem-cap {entries - 1}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,entries", STREAMING_RUNS, ids=STREAMING_IDS)
def test_mem_cap_at_the_length_leaves_the_result(argv, entries, capsys):
    code, plain = run_json(argv, capsys)
    assert code == 0
    code, capped = run_json(argv + ["--mem-cap", str(entries)], capsys)
    assert code == 0 and capped["result"] == plain["result"]


def test_mem_cap_reaches_the_sieve_as_its_argument(capsys, monkeypatch):
    # a --mem-cap above the sieve's default admits a larger table where the
    # CLI sieves, and does not lift the library's own check where it streams
    monkeypatch.setattr(mspec.arith, "DEFAULT_MEM_CAP", 100)
    for argv in (["sieve", "--limit", "243"], ["spectrum", "--shape", "3^5"],
                 ["correlate", "--shape", "3^5", "--char", "7"]):
        assert run_command(argv) == 3
        assert run_command(argv + ["--mem-cap", "243"]) == 0
    assert run_command(["lambda-balance", "--shape", "3^5", "--mem-cap", "243"]) == 3
    captured = capsys.readouterr()
    assert "limit 243 exceeds memory cap 100 entries" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,code", [
    (["sieve", "--limit", "100", "--mem-cap", "100"], 0),
    (["sieve", "--limit", "0", "--mem-cap", "100"], 2),
    (["sieve", "--limit", "100", "--mem-cap", "10"], 3),
])
def test_run_command_leaves_the_environment(argv, code, capsys, monkeypatch):
    # a variable of the cap's old name is only part of the environment
    monkeypatch.setenv("MSPC_MEM_CAP", "5")
    before = dict(os.environ)
    assert run_command(argv) == code
    assert dict(os.environ) == before
    capsys.readouterr()


def test_csq_samples_times_q_over_the_cap_exits_3(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew translates for a run that must be refused")

    monkeypatch.setattr(mspec.learning.np.random, "default_rng", refuse)
    assert run_command(["csq", "--shape", "2^4", "--samples", "1000000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--q 10 times --samples 1000000000000" in captured.err
    assert f"cap {SPECTRUM_CAP}" in captured.err and "Traceback" not in captured.err


def test_bounds_check_interval_over_the_cap_exits_3(capsys):
    argv = ["bounds-check", "--shape", "2^20*3^12", "--char", "5",
            "--check", "interval", "--lo", "0", "--hi", "557256278016"]
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"interval length 557256278016 exceeds the cap {SPECTRUM_CAP}" in captured.err
    assert "Traceback" not in captured.err


def test_katai_computes_the_correlation_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return correlation(*args)

    monkeypatch.setattr(mspec.cli, "correlation", counting)
    monkeypatch.setattr(mspec.spectral, "correlation", counting)
    code, rec = run_json(["katai", "--shape", "3^5", "--function", "mobius",
                          "--char", "7"], capsys)
    assert code == 0 and len(calls) == 1
    res = rec["result"]
    assert res["observed"] == abs(correlation(*calls[0]))
    assert res["delta"] == res["observed"] / 2
    assert res["evaluations"] == res["candidates"] * 3**5


def _refuse_constant(name):
    raise ValueError(f"record holds {name}, which strict JSON does not allow")


@pytest.mark.parametrize("argv", [
    ["katai", "--shape", "3^5", "--delta", "1e-105"],   # the cap's quotient overflows
    ["katai", "--shape", "3^5", "--delta", "1e-300"],   # delta**3 underflows to 0
    ["csq", "--shape", "2^4", "--tau", "1e-200", "--samples", "2"],
    ["csq", "--shape", "2^4", "--tau", "1e-160", "--samples", "2"],
    ["csq", "--shape", "2^4", "--tau", "1e308", "--samples", "2"],
    ["ngd", "--shape", "2^4", "--T", "1", "--trials", "1", "--tau", "1e-320"],
    ["ngd", "--shape", "2^4", "--T", "1", "--trials", "1", "--eps", "1e-320"],
    ["ngd", "--shape", "2^4", "--T", "1", "--trials", "1", "--R", "1e308"],
    ["digital-pnt", "--p", "3", "--d", "4", "--L", "1000", "--b", "0"],  # degenerate fiber
])
def test_extreme_floats_give_a_strict_json_record(argv, capsys):
    assert run_command(argv) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if argv[0] == "katai":
        _, ref = run_json(["katai", "--shape", "3^5", "--delta", "1e-100"], capsys)
        for key in ("candidates", "terms"):
            assert rec["result"][key] == ref["result"][key]
