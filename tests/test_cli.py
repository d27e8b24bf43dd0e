import hashlib
import json
from pathlib import Path

import pytest

from exsample.cli import ExperimentConfig, main, oracle_report, run_experiment


def _read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# SHA-256 over the sorted (name, bytes) of the output directory of
#   exsample run --lm fixtures/arith_lm.json --constraint fixtures/arith.g
#     --methods rs,ars,rsft,cars,gcd --seeds 1..3 --oracle
# A change that moves it must say why.
GOLDEN_DIGEST = "a2052ddb7c5b34edea003d514487e9a5395aa81e98de5dfa150de12444545c33"


def _config(fixtures_dir, out, **kw):
    base = dict(
        lm=str(fixtures_dir / "arith_lm.json"),
        constraint=str(fixtures_dir / "arith.g"),
        methods=["rs", "ars", "rsft", "cars", "gcd"],
        seeds=[1, 2, 3],
        target_valid=100,
        sample_cap=2000,
        out=str(out),
        oracle=True,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation(fixtures_dir, tmp_path):
    with pytest.raises(ValueError, match="unknown methods"):
        _config(fixtures_dir, tmp_path, methods=["rs", "mcmc"])
    with pytest.raises(ValueError, match="seed"):
        _config(fixtures_dir, tmp_path, seeds=[])
    with pytest.raises(ValueError, match="cap"):
        _config(fixtures_dir, tmp_path, target_valid=5000)


def test_full_grid_writes_one_row_per_cell(fixtures_dir, tmp_path):
    cfg = _config(fixtures_dir, tmp_path / "out")
    assert run_experiment(cfg) == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "method,seed,generations,accepted,kl_proxy,kl_oracle,tv_oracle,ci_low,ci_high"
    assert len(lines) == 1 + 5 * 3  # header + one row per (method, seed)
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[3]) == 100  # every cell reached the target
        assert fields[4] != "" and fields[5] != "" and fields[6] != ""
        assert fields[7] != "" and fields[8] != ""  # 3 seeds -> CI present
    # trajectories and sample dumps exist per cell
    for method in ("rs", "ars", "rsft", "cars", "gcd"):
        for seed in (1, 2, 3):
            assert (tmp_path / "out" / f"trajectory_{method}_{seed}.csv").exists()
            dump = (tmp_path / "out" / f"samples_{method}_{seed}.tsv").read_text().splitlines()
            assert dump[0] == "index\tlm_calls\tids\ttext"
            assert len(dump) == 101


def test_rerun_is_byte_identical(fixtures_dir, tmp_path):
    cfg_a = _config(fixtures_dir, tmp_path / "a", seeds=[1, 2], target_valid=40)
    cfg_b = _config(fixtures_dir, tmp_path / "b", seeds=[1, 2], target_valid=40)
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    a = _read_tree(tmp_path / "a")
    b = _read_tree(tmp_path / "b")
    assert a == b


def test_timeout_rows_keep_partial_counts(fixtures_dir, tmp_path):
    cfg = _config(
        fixtures_dir,
        tmp_path / "out",
        lm=str(fixtures_dir / "arith_lowmass_lm.json"),
        methods=["rs"],
        seeds=[1],
        target_valid=10,
        sample_cap=10,
    )
    run_experiment(cfg)
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert int(fields[2]) == 10  # capped
    assert int(fields[3]) < 10  # timeout with partial accepts
    eff = (tmp_path / "out" / "efficiency.csv").read_text().splitlines()
    assert eff[1].split(",")[2] == "1"  # one timeout


def test_trie_dumps_written(fixtures_dir, tmp_path):
    cfg = _config(
        fixtures_dir,
        tmp_path / "out",
        methods=["cars"],
        seeds=[1],
        target_valid=150,
        sample_cap=2000,
        dump_trie=True,
    )
    run_experiment(cfg)
    dumps = list((tmp_path / "out").glob("trie_cars_1_iter*.txt"))
    assert dumps, "expected at least one 100-iteration snapshot"
    text = dumps[0].read_text()
    assert text.splitlines()[0].startswith("\t")


def test_cli_main_runs(fixtures_dir, tmp_path, capsys):
    config = {
        "lm": str(fixtures_dir / "arith_lm.json"),
        "constraint": str(fixtures_dir / "arith.g"),
        "methods": ["cars"],
        "seeds": [5],
        "target_valid": 20,
        "sample_cap": 500,
        "out": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    # flags override the file
    code = main(["run", "--config", str(cfg_path), "--seeds", "7..8", "--oracle"])
    assert code == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("cars,7,") and lines[2].startswith("cars,8,")


def test_oracle_report_contents(fixtures_dir, capsys):
    cfg = ExperimentConfig(
        lm=str(fixtures_dir / "arith_lm.json"),
        constraint=str(fixtures_dir / "arith.g"),
    )
    text = oracle_report(cfg)
    assert "constraint mass under the model" in text
    assert "top sequences" in text
    # mass equals 1 minus the total invalid mass of the enumeration
    from exsample import enumerate_lm, load_table_lm
    from exsample.constraints import load_constraint
    from exsample.oracle import constrained_mass

    lm = load_table_lm(fixtures_dir / "arith_lm.json")
    checker = load_constraint(fixtures_dir / "arith.g", lm.vocab)
    mass = constrained_mass(enumerate_lm(lm), checker)
    assert repr(mass) in text


def test_oracle_report_trivial_and_empty(fixtures_dir, tmp_path):
    allpass = tmp_path / "allpass.dfa"
    allpass.write_text('alphabet "01+"\nstart 0\naccept 0\n0 "01+" 0\n')
    cfg = ExperimentConfig(
        lm=str(fixtures_dir / "arith_lm.json"), constraint=str(allpass)
    )
    text = oracle_report(cfg)
    mass_line = [l for l in text.splitlines() if "constraint mass" in l][0]
    assert float(mass_line.split()[-1]) == pytest.approx(1.0, abs=1e-6)

    nine = tmp_path / "nine.g"
    nine.write_text('S : "0" "0" "0" "0" "0" "0" "0" "0" "0"\n')
    cfg = ExperimentConfig(lm=str(fixtures_dir / "arith_lm.json"), constraint=str(nine))
    text = oracle_report(cfg)
    assert "L-mass = 0" in text


def test_ngram_lm_source(fixtures_dir, tmp_path):
    doc = {
        "tokens": ["0", "1", "+", "$"],
        "eos": 3,
        "order": 2,
        "horizon": 6,
        "corpus": ["0+1", "1", "1+1+0"],
    }
    lm_path = tmp_path / "counts.json"
    lm_path.write_text(json.dumps(doc))
    cfg = _config(
        fixtures_dir, tmp_path / "out",
        lm=str(lm_path), methods=["cars"], seeds=[1], target_valid=50,
    )
    run_experiment(cfg)
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[1].split(",")[3] == "50"


def test_report_subcommand(fixtures_dir, capsys):
    code = main(
        [
            "report",
            "--lm", str(fixtures_dir / "twoword_lm.json"),
            "--constraint", str(fixtures_dir / "twoword.g"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "constraint mass under the model" in out


def _run_args(fixtures_dir, out, *extra):
    return [
        "run",
        "--lm", str(fixtures_dir / "arith_lm.json"),
        "--constraint", str(fixtures_dir / "arith.g"),
        "--out", str(out),
        *extra,
    ]


def test_golden_output_bits(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    args = _run_args(fixtures_dir, out, "--methods", "rs,ars,rsft,cars,gcd",
                     "--seeds", "1..3", "--oracle")
    assert main(args) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    assert h.hexdigest() == GOLDEN_DIGEST


def test_gcd_dump_trie_writes_root_only_snapshots(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    args = _run_args(fixtures_dir, out, "--methods", "gcd", "--seeds", "1",
                     "--target-valid", "250", "--dump-trie")
    assert main(args) == 0
    generations = int((out / "metrics.csv").read_text().splitlines()[1].split(",")[2])
    assert generations >= 250
    snapshots = sorted(out.glob("trie_gcd_1_iter*.txt"))
    assert [p.name for p in snapshots] == [
        f"trie_gcd_1_iter{i:06d}.txt" for i in range(100, generations + 1, 100)
    ]
    # gcd never writes to its trie: the root alone, with all of the mass
    assert all(p.read_text() == "\t1.0\t0\n" for p in snapshots)
