"""CLI subcommands: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcover.cli import GEN_MAX_N, main
from rcover.formats import load_instance


def test_gen_mono_counts(tmp_path):
    out = tmp_path / "m.h3bits"
    assert main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(out)]) == 0
    h, col = load_instance(out)
    assert len(col.red) == 20 and not col.blue


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.h3bits", tmp_path / "b.h3bits"
    for path in (a, b):
        assert main(
            ["gen", "--model", "uniform", "--n", "9", "--p", "0.5", "--seed", "7", "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_uniform_p1_equals_mono(tmp_path):
    u, m = tmp_path / "u.h3bits", tmp_path / "m.h3bits"
    main(["gen", "--model", "uniform", "--n", "7", "--p", "1.0", "--seed", "3", "--out", str(u)])
    main(["gen", "--model", "mono", "--color", "R", "--n", "7", "--out", str(m)])
    assert u.read_bytes() == m.read_bytes()


def test_solve_verify_roundtrip(tmp_path, capsys):
    inst = tmp_path / "i.h3bits"
    out = tmp_path / "cover.json"
    main(["gen", "--model", "uniform", "--n", "8", "--seed", "5", "--out", str(inst)])
    assert main(["solve", "--input", str(inst), "--gamma", "1e-3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True
    assert main(["verify", "--input", str(out), "--instance", str(inst)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_solve_all_red_n12(tmp_path):
    inst = tmp_path / "r.h3bits"
    out = tmp_path / "c.json"
    main(["gen", "--model", "mono", "--color", "R", "--n", "12", "--out", str(inst)])
    assert main(["solve", "--input", str(inst), "--gamma", "1e-6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["covered"] == 12
    assert doc["blue"]["edges"] == []


def test_cycles_exit_codes(tmp_path):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(inst)])
    out = tmp_path / "cyc.json"
    assert main(["cycles", "--input", str(inst), "--max-uncovered", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "found" and doc["uncovered"] == []
    # blue odd cycle cannot exist in an all-red coloring
    rc = main(
        ["cycles", "--input", str(inst), "--max-uncovered", "6",
         "--parity", "red=any,blue=odd", "--out", str(out)]
    )
    assert rc == 2
    assert json.loads(out.read_text())["status"] == "exhausted"


def test_cycles_verify(tmp_path, capsys):
    inst = tmp_path / "i.h3bits"
    out = tmp_path / "cyc.json"
    main(["gen", "--model", "uniform", "--n", "7", "--seed", "2", "--out", str(inst)])
    rc = main(["cycles", "--input", str(inst), "--max-uncovered", "7", "--out", str(out)])
    assert rc == 0
    assert main(["verify", "--input", str(out), "--instance", str(inst)]) == 0


def test_oracle_subcommand(tmp_path):
    inst = tmp_path / "i.h3bits"
    out = tmp_path / "o.json"
    main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(inst)])
    assert main(["oracle", "--input", str(inst), "--task", "matching", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["optimum"] == 6
    assert main(["oracle", "--input", str(inst), "--task", "cycle-pair", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["optimum"] == 0
    assert main(["oracle", "--input", str(inst), "--task", "perfect-matching", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["exists"] is True


def test_oracle_cap_is_an_error(tmp_path):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "uniform", "--n", "12", "--seed", "0", "--out", str(inst)])
    assert main(["oracle", "--input", str(inst), "--task", "matching"]) == 1


def test_reduce_subcommand(tmp_path):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(inst)])
    part = tmp_path / "part.json"
    part.write_text(
        json.dumps(
            {
                "classes": [[0, 1], [2, 3], [4, 5]],
                "bip": {
                    "0,1": [[0, 2], [0, 3], [1, 2], [1, 3]],
                    "0,2": [[0, 4], [0, 5], [1, 4], [1, 5]],
                    "1,2": [[2, 4], [2, 5], [3, 4], [3, 5]],
                },
            }
        )
    )
    out = tmp_path / "reduced.h3json"
    assert main(["reduce", "--input", str(inst), "--partition", str(part), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 3 and doc["edges"] == [[0, 1, 2]] and doc["colors"] == ["R"]
    dens = json.loads((tmp_path / "reduced.h3json.densities.json").read_text())
    assert dens["densities"]["0,1,2"] == "1/1"


def test_sweep_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--model", "uniform", "--n", "6,7", "--seeds", "0..4",
            "--p", "0.5", "--gamma", "1e-3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 11  # header + 2 sizes x 5 seeds
    assert lines[0] == "model,n,p,gamma,seed,covered,uncovered_count,valid"
    assert all(line.endswith("True") for line in lines[1:])
    assert (tmp_path / "s1.csv.timings.csv").exists()


def test_sweep_worker_pool_matches_serial(tmp_path, monkeypatch):
    serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--model", "uniform", "--n", "6", "--seeds", "0..5", "--out"]
    monkeypatch.setenv("RCOVER_THREADS", "1")
    assert main(base + [str(serial)]) == 0
    for value in ("2", "3"):
        monkeypatch.setenv("RCOVER_THREADS", value)
        assert main(base + [str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()


def test_sweep_600_rows(tmp_path):
    out = tmp_path / "big.csv"
    rc = main(
        ["sweep", "--model", "uniform", "--n", "6,7,8", "--seeds", "0..199",
         "--p", "0.5", "--gamma", "1e-3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 601  # header + 600 rows
    assert all(line.endswith("True") for line in lines[1:])


def test_gen_rejects_tiny_n(tmp_path):
    assert main(["gen", "--model", "uniform", "--n", "3", "--out", str(tmp_path / "x.h3bits")]) == 1


def test_bad_input_is_exit_1(tmp_path):
    bogus = tmp_path / "x.h3bits"
    bogus.write_bytes(b"garbage")
    assert main(["solve", "--input", str(bogus), "--gamma", "1e-3"]) == 1


# child processes import the package from src/, as the tests in this process do
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "rcover.cli", "--version"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "rcover" in proc.stdout


def _cli(*args, env_extra=None):
    """Run the CLI in a child process; returns (exit code, stderr)."""
    env = dict(CHILD_ENV, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, "-m", "rcover.cli", *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr


def _assert_one_line_error(rc, err):
    assert rc == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _verify_doc(tmp_path, doc):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "uniform", "--n", "7", "--seed", "2", "--out", str(inst)])
    res = tmp_path / "res.json"
    res.write_text(json.dumps(doc))
    return _cli("verify", "--input", str(res), "--instance", str(inst))


def test_verify_cover_missing_fields_is_one_line(tmp_path):
    _assert_one_line_error(*_verify_doc(tmp_path, {"type": "cover"}))


def test_verify_json_list_is_one_line(tmp_path):
    _assert_one_line_error(*_verify_doc(tmp_path, [1, 2, 3]))


def test_verify_cover_negative_edge_is_one_line(tmp_path):
    red = {"color": "R", "edges": [[-3, -2, -1]], "component": "R:0", "certificates": []}
    blue = {"color": "B", "edges": [], "component": None, "certificates": []}
    doc = {"type": "cover", "red": red, "blue": blue, "covered": 3, "uncovered": [], "trace": []}
    rc, err = _verify_doc(tmp_path, doc)
    _assert_one_line_error(rc, err)
    assert "(-3, -2, -1)" in err


def test_verify_cycle_pair_missing_blue_is_one_line(tmp_path):
    doc = {"type": "cycle-pair", "status": "found", "red": [0, 1, 2, 3]}
    _assert_one_line_error(*_verify_doc(tmp_path, doc))


def test_cycles_negative_max_uncovered_is_one_line(tmp_path):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(inst)])
    _assert_one_line_error(*_cli("cycles", "--input", str(inst), "--max-uncovered", "-3"))


def test_sweep_threads_must_be_a_positive_integer(tmp_path):
    base = ("sweep", "--model", "uniform", "--n", "6", "--seeds", "0..1", "--out", str(tmp_path / "s.csv"))
    for value in ("0", "x"):
        _assert_one_line_error(*_cli(*base, env_extra={"RCOVER_THREADS": value}))


@pytest.mark.parametrize("model", ["mono", "uniform"])
def test_gen_huge_n_is_one_line(tmp_path, model):
    # without a size check, mono fails allocating C(10**6, 3) bits and
    # uniform starts drawing that many counters
    out = tmp_path / "huge.h3bits"
    rc, err = _cli("gen", "--model", model, "--n", "1000000", "--out", str(out))
    _assert_one_line_error(rc, err)
    assert str(GEN_MAX_N) in err
    assert not out.exists()


def test_solve_unallocatable_n_is_one_line(tmp_path):
    # the edge mask would take C(10**6, 3) / 8, about 2e16 bytes: the
    # allocation fails at once, before any memory is touched
    inst = tmp_path / "huge.h3json"
    inst.write_text('{"n": 1000000, "edges": []}')
    _assert_one_line_error(*_cli("solve", "--input", str(inst)))



CLASSES = [[0, 1], [2, 3], [4, 5]]


@pytest.mark.parametrize(
    "partition, flags",
    [
        ({}, None),
        ({"classes": 3}, None),
        (CLASSES, None),
        ({"classes": CLASSES, "bip": {"0,1": 5}}, None),
        ({"classes": CLASSES}, {"regular": 1}),
        ({"classes": [[0, 1], [2, 3], [4, 100]]}, None),
        ({"classes": [[0, 1], [2, 3], [-4, 5]]}, None),
    ],
)
def test_reduce_malformed_documents_are_one_line(tmp_path, partition, flags):
    inst = tmp_path / "i.h3bits"
    main(["gen", "--model", "mono", "--color", "R", "--n", "6", "--out", str(inst)])
    part = tmp_path / "part.json"
    part.write_text(json.dumps(partition))
    args = ["reduce", "--input", str(inst), "--partition", str(part), "--out", str(tmp_path / "r.h3json")]
    if flags is not None:
        (tmp_path / "flags.json").write_text(json.dumps(flags))
        args += ["--regular-flags", str(tmp_path / "flags.json")]
    _assert_one_line_error(*_cli(*args))
