import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irrcensus import census, cli


def test_parse_constants_group():
    cmd = cli.parse(["constants", "--group", "2"])
    assert cmd.subcommand == "constants"
    assert cmd.group == (2,)
    assert cmd.d is None


def test_parse_ek():
    cmd = cli.parse(["ek", "--field", "-5", "--x", "1000000", "--out", "rpt.json"])
    assert cmd.subcommand == "ek"
    assert cmd.d == -5
    assert cmd.x == 10**6
    assert cmd.out == "rpt.json"


def test_parse_exclusive_flags():
    with pytest.raises(cli.UsageError):
        cli.parse(["census", "--field", "-5", "--group", "2", "--x", "100"])


def test_parse_unknown_flag(capsys):
    for extra in (["--bogus"], ["--threads", "8"]):
        with pytest.raises(cli.UsageError):
            cli.parse(["census", "--field", "-5", "--x", "10"] + extra)
    # a malformed list value is a usage error (exit 2) naming its flag
    for argv, flag in (
        (["census", "--group", "2,x", "--x", "10", "--seed", "1"], "--group"),
        (["moments", "--field", "-5", "--x", "10", "--kappa", "1,a"], "--kappa"),
    ):
        with pytest.raises(cli.UsageError, match=flag):
            cli.parse(argv)
        assert cli.main(argv) == 2
        assert flag in capsys.readouterr().err


def test_parse_missing_required():
    with pytest.raises(cli.UsageError):
        cli.parse(["census", "--field", "-5"])  # no --x
    with pytest.raises(cli.UsageError):
        cli.parse(["equidist", "--field", "-5", "--x", "100"])  # no --m
    with pytest.raises(cli.UsageError):
        cli.parse(["constants"])


def test_parse_synth_requires_seed():
    with pytest.raises(cli.UsageError):
        cli.parse(["census", "--group", "2", "--x", "100"])
    cmd = cli.parse(["census", "--group", "2", "--x", "100", "--seed", "5"])
    assert cmd.seed == 5


@pytest.mark.parametrize("argv", [
    ["selftest", "--x", "10", "--out", "f.json"],
    ["selftest", "--x", "10", "--format", "csv"],
    ["selftest", "--x", "10", "--seed", "1"],
    ["constants", "--group", "2", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # selftest writes no file in any format and builds no synthetic stream,
    # and constants builds no stream
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_main_usage_error_exit_code(capsys):
    assert cli.main(["census", "--field", "-5"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert cli.main([]) == 2
    assert "a subcommand is required" in capsys.readouterr().err


def test_main_domain_error_exit_code(capsys):
    # -12 is not squarefree
    assert cli.main(["constants", "--field", "-12"]) == 1
    assert "error" in capsys.readouterr().err


def test_constants_group_2(capsys):
    assert cli.main(["constants", "--group", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A"] == "1/8"
    assert payload["davenport"] == 2
    assert payload["order"] == 2


def test_constants_group_3(capsys):
    assert cli.main(["constants", "--group", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A"] == "1/81"
    assert payload["davenport"] == 3


def test_constants_field(capsys):
    assert cli.main(["constants", "--field", "-5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A"] == "1/8"
    assert payload["field"]["class_number"] == 2


def test_constants_trivial_group(capsys):
    assert cli.main(["constants", "--group", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A"] == "1/1"
    assert payload["davenport"] == 1


def test_census_to_file(tmp_path):
    out = tmp_path / "census.csv"
    assert cli.main(["census", "--field", "-5", "--x", "100", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("norm,class,omega_1")
    assert len(lines) > 10


def test_census_json_format(capsys):
    argv = ["census", "--field", "-5", "--x", "20"]
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"][0] == "norm"
    assert payload["rows"][0][0] == 1
    # same rows, in the same order, as the CSV (norms 6 and 9 are tied)
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert payload["schema"] == lines[0].split(",")
    assert payload["rows"] == [[int(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize(
    "source",
    [
        ["--field", "-5"],
        ["--group", "2,4", "--seed", "3"],
        # 2 is inert here, so the site stream to 2 is empty
        ["--field", "-3"],
        ["--field", "-19"],
    ],
)
def test_census_x1_is_the_unit_row(source, capsys):
    # the site stream is built to 2 at least; x = 1 has only the unit ideal
    assert cli.main(["census", *source, "--x", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    h = header.count("omega_")
    assert header.startswith("norm,class,omega_1")
    assert rows == [",".join(["1", "1"] + ["0"] * (2 * h + 1) + ["1", "0", "1"])]


def test_equidist_and_selftest_accept_x1(capsys):
    assert cli.main(["equidist", "--field", "-5", "--x", "1", "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n_principal"] == 1
    assert cli.main(["selftest", "--x", "1"]) == 0
    assert capsys.readouterr().out.count(": 1 principal ideals, ok") == len(cli.SELFTEST_FIELDS)


@pytest.mark.parametrize("argv,minimum", [
    (["census", "--field", "-5"], 1),
    (["equidist", "--field", "-5", "--m", "2"], 1),
    (["selftest"], 1),
    (["ek", "--field", "-5"], 16),
    (["ek", "--group", "2", "--seed", "1"], 16),
    (["moments", "--field", "-5"], 3),
    (["moments", "--group", "2,4", "--seed", "1"], 3),
    (["check", "--field", "-5"], 3),
])
def test_x_minimum_per_subcommand(argv, minimum, capsys):
    # below the minimum the parser names --x (exit 2); at it the run succeeds
    assert cli.parse(argv + ["--x", str(minimum)]).x == minimum
    with pytest.raises(cli.UsageError, match=f"--x must be >= {minimum}"):
        cli.parse(argv + ["--x", str(minimum - 1)])
    assert cli.main(argv + ["--x", str(minimum - 1)]) == 2
    assert "--x" in capsys.readouterr().err
    assert cli.main(argv + ["--x", str(minimum)]) == 0


@pytest.mark.parametrize("argv,flag", [
    (["moments", "--field", "-5", "--x", "100"], "--k"),
    (["equidist", "--field", "-5", "--x", "100"], "--m"),
    (["ek", "--field", "-5", "--x", "100"], "--m"),
])
def test_k_and_m_minimum(argv, flag, capsys):
    # 0 is a usage error naming the flag (exit 2); 1 runs
    with pytest.raises(cli.UsageError, match=f"{flag} must be >= 1"):
        cli.parse(argv + [flag, "0"])
    assert cli.main(argv + [flag, "0"]) == 2
    assert flag in capsys.readouterr().err
    assert cli.main(argv + [flag, "1"]) == 0


def test_equidist_counts_sum(capsys):
    assert cli.main(["equidist", "--field", "-5", "--x", "10000", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["0"] + payload["counts"]["1"] == payload["n_principal"]


def test_equidist_csv(capsys):
    assert cli.main(
        ["equidist", "--field", "-5", "--x", "100", "--m", "3", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "residue,count"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["constants", "--group", "2,2"],
    ["constants", "--field", "-5"],
    ["ek", "--field", "-5", "--x", "1000"],
    ["moments", "--field", "-5", "--x", "1000", "--k", "3"],
    ["check", "--field", "-5", "--x", "1000"],
])
def test_flat_csv_matches_json(argv, capsys):
    # every CSV row reads back as one key and one value; a string value is
    # the JSON's string, any other value parses to the JSON's value
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [2] * len(rows)
    assert rows[0] == ["key", "value"]
    assert [key for key, _ in rows[1:]] == sorted(payload)
    for key, value in rows[1:]:
        want = payload[key]
        assert (value if isinstance(want, str) else json.loads(value)) == want


def test_ek_writes_report_and_histogram(tmp_path):
    out = tmp_path / "rpt.json"
    assert cli.main(["ek", "--field", "-5", "--x", "10000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["x"] == 10000
    assert payload["constants"]["B_squared"] == "1/8"
    hist = (tmp_path / "rpt.hist.csv").read_text()
    assert hist.startswith("bin_low,bin_high,count")


def test_ek_histogram_path_without_json_suffix(tmp_path):
    # only a .json suffix is replaced; any other name gets .hist.csv appended
    base = ["ek", "--field", "-5", "--x", "10000", "--out"]
    assert cli.main(base + [str(tmp_path / "rpt.json")]) == 0
    assert cli.main(base + [str(tmp_path / "rpt.txt")]) == 0
    assert (tmp_path / "rpt.txt").read_bytes() == (tmp_path / "rpt.json").read_bytes()
    hist = (tmp_path / "rpt.txt.hist.csv").read_bytes()
    assert hist == (tmp_path / "rpt.hist.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rpt.hist.csv", "rpt.json", "rpt.txt", "rpt.txt.hist.csv"
    ]


def test_ek_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["ek", "--field", "-5", "--x", "10000"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ek_on_synth_stream(tmp_path):
    out = tmp_path / "synth.json"
    assert (
        cli.main(
            ["ek", "--group", "3", "--x", "5000", "--seed", "17", "--out", str(out)]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["weber_ratios"] is None
    assert payload["n_principal"] > 0


def test_moments_output(capsys):
    assert cli.main(["moments", "--field", "-5", "--x", "10000", "--k", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == [0.0, 1.0]
    assert set(payload["moments"]) == {"1", "2", "3", "4"}
    assert payload["moments"]["2"]["target"] > 0
    assert "ratio" in payload["moments"]["2"]
    assert "ratio" not in payload["moments"]["3"]


@pytest.mark.parametrize("source", [["--field", "-5"], ["--group", "2,4", "--seed", "1"]])
def test_moments_checks_kappa_before_the_stream(source, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the site stream was built")

    monkeypatch.setattr(census, "for_field", refuse)
    monkeypatch.setattr(census, "for_synth", refuse)
    assert cli.main(["moments", *source, "--x", "3000000", "--kappa", "1"]) == 1
    h = 8 if "--group" in source else 2
    assert capsys.readouterr().err == f"error: kappa must have length h={h}\n"


def test_check_output(capsys):
    assert cli.main(["check", "--field", "-5", "--x", "10000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["weber_ratios"]) == 2
    assert len(payload["g_checks"]) == 2
    assert abs(payload["g_checks"][0]["difference"]) < 0.05
    # check needs a field
    assert cli.main(["check", "--group", "2", "--x", "100", "--seed", "1"]) == 2


def test_selftest_small(capsys, monkeypatch):
    assert cli.main(["selftest", "--x", "300"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 4
    # a mismatch fails its own field and the exit code, not the later fields
    calls = []
    oracle = census.delta_bruteforce

    def off_by_one_once(fact, ordering):
        calls.append(fact)
        return oracle(fact, ordering) + (len(calls) == 1)

    monkeypatch.setattr(census, "delta_bruteforce", off_by_one_once)
    assert cli.main(["selftest", "--x", "300"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1 and out.count("ok") == 3
    # so does a census whose first two unequal tied rows trade places
    monkeypatch.setattr(census, "delta_bruteforce", oracle)
    rows_of = census.census_rows
    swapped = []

    def swap_tied_once(system, x):
        rows = rows_of(system, x)
        if not swapped:
            i = next(
                i for i, (a, b) in enumerate(zip(rows, rows[1:])) if a[0] == b[0] and a != b
            )
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            swapped.append(i)
        return rows

    monkeypatch.setattr(census, "census_rows", swap_tied_once)
    assert cli.main(["selftest", "--x", "300"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1 and out.count("ok") == 3


def test_identical_commands_identical_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["census", "--group", "2", "--x", "2000", "--seed", "9"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


HASH_SEED_RUNS = {
    # CLI arguments, then the --out file and any other file the run writes
    "ek -5": (("ek", "--field", "-5", "--x", "10000"), ("report.json", "report.hist.csv")),
    "census 2,4": (("census", "--group", "2,4", "--seed", "7", "--x", "3000"), ("census.csv",)),
    "check -23": (("check", "--field", "-23", "--x", "5000"), ("check.json",)),
}


@pytest.mark.parametrize("key", sorted(HASH_SEED_RUNS))
def test_output_bytes_do_not_depend_on_the_hash_seed(key, tmp_path):
    # bytes hashing, and so the order of a set or dict keyed by bytes (such
    # as the nu memos of census._States), changes with the process's hash
    # seed, which a test in one process cannot vary: run the CLI under two
    # seeds and compare the files
    args, files = HASH_SEED_RUNS[key]
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for seed in ("0", "4242"):
        out = tmp_path / seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        subprocess.run(
            [sys.executable, "-m", "irrcensus.cli", *args, "--out", str(out / files[0])],
            env=env, check=True, capture_output=True,
        )
        written.append([(out / name).read_bytes() for name in files])
    assert all(written[0]) and written[0] == written[1]
