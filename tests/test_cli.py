import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from exsample.cli import ExperimentConfig, load_lm, main, oracle_report, run_experiment
from exsample.grammar import EmptyLanguageError


def _read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# SHA-256 over the sorted (name, bytes) of the output directory of
#   exsample run --lm fixtures/arith_lm.json --constraint fixtures/arith.g
#     --methods rs,ars,rsft,cars,gcd --seeds 1..3 --oracle
# A change that moves it must say why.
GOLDEN_DIGEST = "5ce3f4772c29fc29e1b8655efda533e83dd6ae5ce4e701c483766090bb45dbb0"


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", [1], r"unknown keys \['seed'\]"),
        ("seeds", "12", r"'seeds' has the wrong type: '12'"),
        ("seeds", [1, "2"], r"'seeds' has the wrong type"),
        ("methods", "cars", r"'methods' has the wrong type"),
        ("target_valid", "100", r"'target_valid' has the wrong type"),
        ("horizon", 7.0, r"'horizon' has the wrong type"),
        ("lm", 5, r"'lm' has the wrong type"),
        ("oracle", "no", r"'oracle' has the wrong type: 'no'"),
        ("dump_trie", 1, r"'dump_trie' has the wrong type: 1"),
        ("seeds", [1, 2, 1], r"'seeds' repeats 1$"),
        ("methods", ["cars", "rs", "cars"], r"'methods' repeats 'cars'$"),
        ("seeds", [3, -2], r"'seeds' has negative seed -2$"),
    ],
)
def test_bad_config_key_is_a_value_error_naming_it(fixtures_dir, tmp_path, key, value, message):
    config = {
        "lm": str(fixtures_dir / "arith_lm.json"),
        "constraint": str(fixtures_dir / "arith.g"),
        "out": str(tmp_path / "out"),
        key: value,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message) as err:
        main(["run", "--config", str(cfg_path)])
    assert str(cfg_path) in str(err.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "seeds, message",
    [
        pytest.param("1..", r"^--seeds: '1\.\.' is not an int", id="1..-'1..'"),
        pytest.param("x", r"^--seeds: 'x' is not an int", id="x-'x'"),
        pytest.param("1,,2", r"^--seeds: '' is not an int", id="1,,2-''"),
        pytest.param("1..3,2", r"^config key 'seeds' repeats 2$", id="1..3,2-repeat"),
        pytest.param("1,-1", r"^config key 'seeds' has negative seed -1$", id="1,-1-negative"),
        pytest.param("1,5..3", r"^--seeds: '5\.\.3' is a reversed range$", id="1,5..3-reversed"),
        pytest.param("5..3", r"^--seeds: '5\.\.3' is a reversed range$", id="5..3-reversed"),
    ],
)
def test_bad_seeds_are_a_value_error_naming_the_part(fixtures_dir, tmp_path, seeds, message):
    args = _run_args(fixtures_dir, tmp_path / "out", "--seeds", seeds)
    with pytest.raises(ValueError, match=message):
        main(args)
    assert not (tmp_path / "out").exists()


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


def test_dump_trie_writes_the_final_trie(fixtures_dir, tmp_path):
    """With ``--dump-trie`` a run also writes the trie it ends with: a
    20-accept cars run's final snapshot is that trie's dump, ``n_nodes``
    lines, more than the root's."""
    from exsample import SamplerConfig, run
    from exsample.constraints import load_constraint

    cfg = _config(fixtures_dir, tmp_path / "out", methods=["cars"], seeds=[1],
                  target_valid=20, oracle=False, dump_trie=True)
    run_experiment(cfg)
    lm = load_lm(cfg)
    tries = []
    stream, _ = run(lm, load_constraint(cfg.constraint, lm.vocab),
                    SamplerConfig("cars", 1, lm.max_len, cfg.sample_cap), 20,
                    trie_hook=lambda generation, trie: tries.append(trie))
    assert len(list(stream)) == 20
    text = (tmp_path / "out" / "trie_cars_1_final.txt").read_text()
    assert text == tries[-1].dump()
    assert len(text.splitlines()) == tries[-1].n_nodes > 1


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


def test_dfa_constraint_runs_end_to_end(fixtures_dir, tmp_path):
    constraint = tmp_path / "zeros.dfa"  # the README's .dfa example, 0(+0)* over 01+
    constraint.write_text('alphabet "01+"\nstart 0\naccept 1\n0 "0" 1\n1 "+" 2\n2 "0" 1\n')
    member = re.compile(r"0(\+0)*")
    trees = []
    for out in (tmp_path / "a", tmp_path / "b"):
        args = ["run", "--lm", str(fixtures_dir / "arith_lm.json"),
                "--constraint", str(constraint), "--out", str(out),
                "--methods", "rs,ars,rsft,cars,gcd", "--seeds", "1..2"]
        assert main(args) == 0
        trees.append(_read_tree(out))
    dumps = [name for name in trees[0] if name.startswith("samples_")]
    assert len(dumps) == 5 * 2
    for name in dumps:
        rows = trees[0][name].decode().splitlines()[1:]
        assert rows, name
        for row in rows:
            assert member.fullmatch(row.split("\t")[3]), (name, row)
    assert trees[0] == trees[1]


def test_empty_language_dfa_is_rejected_before_sampling(fixtures_dir, tmp_path):
    constraint = tmp_path / "empty.dfa"  # accept 2 is unreachable from start 0
    constraint.write_text('alphabet "01+"\nstart 0\naccept 2\n0 "0" 1\n1 "+" 0\n')
    out = tmp_path / "out"
    args = ["run", "--lm", str(fixtures_dir / "arith_lm.json"),
            "--constraint", str(constraint), "--out", str(out)]
    with pytest.raises(EmptyLanguageError, match="start state 0"):
        main(args)
    assert not out.exists()


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


def _remote_cfg(fixtures_dir, tmp_path, eos):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"tokens": ["0", "1", "+", "$"], "eos": eos}))
    return ExperimentConfig(lm="http://127.0.0.1:9/", constraint=str(fixtures_dir / "arith.g"),
                            horizon=3, vocab=str(vocab))


def test_vocab_file_loads_for_a_remote_model(fixtures_dir, tmp_path):
    # building the client sends no request
    assert load_lm(_remote_cfg(fixtures_dir, tmp_path, 3)).vocab.eos == 3


@pytest.mark.parametrize("bad", [2.9, True, "2"])
def test_vocab_file_eos_must_be_a_json_integer(fixtures_dir, tmp_path, bad):
    """eos is refused, not coerced, as in the model documents."""
    want = f"vocabulary document field 'eos' must be an integer, not {bad!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        load_lm(_remote_cfg(fixtures_dir, tmp_path, bad))


@pytest.mark.parametrize("flag", ["--lm", "--vocab", "--config"], ids=lambda f: f[2:])
@pytest.mark.parametrize(
    "text, message",
    [("{bad", "malformed"), ("[1,2]", "must be a JSON object")],
    ids=["syntax", "array"],
)
def test_bad_json_file_is_a_value_error_naming_it(fixtures_dir, tmp_path, flag, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    args = ["report", "--constraint", str(fixtures_dir / "arith.g")]
    if flag == "--vocab":
        # the vocabulary is read before any request to the remote model
        args += ["--lm", "http://127.0.0.1:9/", "--horizon", "3"]
    elif flag == "--config":
        args += ["--lm", str(fixtures_dir / "arith_lm.json")]
    args += [flag, str(bad)]
    with pytest.raises(ValueError, match=message) as err:
        main(args)
    assert str(bad) in str(err.value)


ROOT = Path(__file__).resolve().parent.parent
CHECK_IMPORTS = ROOT / "scripts" / "check_imports.py"


def _check_imports(*path):
    """scripts/check_imports.py run in a fresh interpreter with ``path``
    first on its import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    return subprocess.run(
        [sys.executable, str(CHECK_IMPORTS)], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_imports_only_the_standard_library_and_numpy():
    """What the bare-install CI job checks: ``import exsample.cli`` loads
    no third-party module beyond numpy."""
    done = _check_imports(ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr


def test_import_check_names_a_third_party_module(tmp_path):
    """The check fails, naming the module, when the CLI pulls in one that
    is neither the standard library nor numpy."""
    (tmp_path / "exsample").mkdir()
    (tmp_path / "exsample" / "__init__.py").write_text("")
    (tmp_path / "exsample" / "cli.py").write_text("import thirdparty_dep\n")
    (tmp_path / "thirdparty_dep.py").write_text("")
    done = _check_imports(tmp_path)
    assert done.returncode == 1
    assert "thirdparty_dep" in done.stdout


def test_import_check_names_the_http_stack(tmp_path):
    """The check fails, naming the module, when the CLI loads the standard
    library's HTTP client, which only a remote model's first query needs."""
    (tmp_path / "exsample").mkdir()
    (tmp_path / "exsample" / "__init__.py").write_text("")
    (tmp_path / "exsample" / "cli.py").write_text("import urllib.request\n")
    done = _check_imports(tmp_path)
    assert done.returncode == 1
    assert "urllib.request" in done.stdout
