import json

import numpy as np
import pytest

import mspec.cli
from mspec import (CharacterIndex, FixedFeatureStrategy, char_values,
                   csq_bad_event_rate, group_spectrum, parse_shape)
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
])
def test_spectrum_top_matches_stable_sort(text, table, top, capsys, monkeypatch):
    shape = parse_shape(text)
    if table == "character":
        chi = CharacterIndex.from_flat(37, shape)
        values = np.real(char_values(chi, shape))
        monkeypatch.setattr(mspec.cli, "_function_values", lambda name, X: values)
        table = "mobius"
    else:
        values = mspec.cli._function_values(table, shape.X)
    code, rec = run_json(["spectrum", "--shape", text, "--function", table,
                          "--top", str(top)], capsys)
    assert code == 0
    mags = np.abs(group_spectrum(values, shape).coeffs)
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


def test_seed_recorded(capsys):
    code, rec = run_json(["csq", "--shape", "2^6", "--tau", "0.5", "--q", "2",
                          "--samples", "5", "--seed", "42"], capsys)
    assert code == 0
    assert rec["seed"] == 42


def test_csq_rate_matches_per_sample_strategies(capsys):
    shape = parse_shape("3^5")
    values = mspec.cli._function_values("liouville", shape.X)
    want = csq_bad_event_rate(values, shape, lambda: FixedFeatureStrategy(shape, 4),
                              tau=0.1, q=4, samples=40, seed=3)
    assert 0.0 < want["empirical_rate"] < 1.0
    code, rec = run_json(["csq", "--shape", "3^5", "--function", "liouville",
                          "--tau", "0.1", "--q", "4", "--samples", "40",
                          "--seed", "3"], capsys)
    assert code == 0
    assert rec["result"]["empirical_rate"] == want["empirical_rate"]
