import json

import numpy as np
import pytest

import resourcekit as rk
from resourcekit.affinity import _cert
from resourcekit.cli import EXIT_INPUT_ERROR, main


@pytest.fixture
def states(tmp_path):
    paths = {}
    plus = rk.pure_state([1, 1]).projector()
    mixed = rk.validate(np.eye(2) / 2, [2])
    zero = rk.basis_pure([2], 0).projector()
    one = rk.basis_pure([2], 1).projector()
    diag = rk.validate(np.diag([0.6, 0.4]), [2])
    for name, rho in (("plus", plus), ("mixed", mixed), ("zero", zero),
                      ("one", one), ("diag", diag)):
        p = tmp_path / f"{name}.json"
        rk.save_state(rho, p)
        paths[name] = str(p)
    return paths


def test_affinity_same_state_gives_one(states, capsys):
    code = main(["affinity", "--rho", states["plus"], "--sigma", states["plus"],
                 "--alpha", "0.5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "alpha,value"
    assert float(out[1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)


def test_affinity_orthogonal_and_anchor(states, capsys):
    assert main(["affinity", "--rho", states["zero"], "--sigma", states["one"],
                 "--alpha", "0.5", "--seed", "1"]) == 0
    val = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert val == pytest.approx(0.0, abs=1e-12)

    assert main(["affinity", "--rho", states["plus"], "--sigma", states["mixed"],
                 "--alpha", "0.5", "--seed", "1"]) == 0
    val = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert val == pytest.approx(0.70711, abs=1e-5)


def test_affinity_multiple_alphas(states, capsys):
    assert main(["affinity", "--rho", states["plus"], "--sigma", states["mixed"],
                 "--alpha", "0.3", "--alpha", "0.7", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_missing_seed_exits_two(states, capsys):
    code = main(["affinity", "--rho", states["plus"], "--sigma", states["plus"],
                 "--alpha", "0.5"])
    assert code == 2


def test_bad_alpha_exits_two(states):
    code = main(["affinity", "--rho", states["plus"], "--sigma", states["plus"],
                 "--alpha", "1.5", "--seed", "1"])
    assert code == 2


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["affinity", "--rho", str(tmp_path / "none.json"),
                 "--sigma", str(tmp_path / "none.json"),
                 "--alpha", "0.5", "--seed", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_state_file_exits_two(tmp_path, capsys):
    # a matrix that fails validation, and files of the wrong shape: numbers
    # where [re, im] pairs belong, a top level that is not an object, a
    # string or null entry, ragged rows, a scalar matrix; dims that are not
    # integers (a fraction, a bool, a string), a bool entry, no matrix
    bad = tmp_path / "bad.json"
    for text in ('{"dims": [2], "matrix": [[[1.0, 0], [0, 0]], [[0, 0], [1.0, 0]]]}',
                 '{"dims": [2], "matrix": [[1, 0], [0, 0]]}',
                 '[1, 2]', '"state"',
                 '{"dims": [2], "matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}',
                 '{"dims": [2], "matrix": [[[null, 0], [0, 0]], [[0, 0], [1, 0]]]}',
                 '{"dims": [2], "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}',
                 '{"dims": [2], "matrix": 5}',
                 '{"dims": [2.5], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
                 '{"dims": [true, 2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
                 '{"dims": ["2"], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
                 '{"dims": [2], "matrix": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}',
                 '{"dims": [2]}'):
        bad.write_text(text)
        code = main(["indicator", "--state", str(bad), "--label", "coherence",
                     "--k", "2", "--alpha", "0.5", "--seed", "1"])
        assert code == 2, text
        assert capsys.readouterr().err.startswith("error: "), text


def test_non_finite_state_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
    code = main(["indicator", "--state", str(bad), "--label", "coherence",
                 "--k", "2", "--alpha", "0.5", "--seed", "1"])
    assert code == EXIT_INPUT_ERROR
    assert "NaN or infinite" in capsys.readouterr().err


def test_indicator_diagonal_state_is_zero(states, capsys):
    code = main(["indicator", "--state", states["diag"], "--label", "coherence",
                 "--k", "2", "--alpha", "0.5", "--seed", "3",
                 "--max-iter", "100"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,k,alpha,value,best_affinity,seed"
    assert float(lines[1].split(",")[3]) <= 1e-9


def test_indicator_plus_anchor(states, capsys):
    code = main(["indicator", "--state", states["plus"], "--label", "coherence",
                 "--k", "2", "--alpha", "0.5", "--seed", "3",
                 "--max-iter", "150"])
    assert code == 0
    val = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[3])
    assert val == pytest.approx(0.2928932, abs=1e-6)


def test_indicator_deterministic_output_bytes(states, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["indicator", "--state", states["plus"], "--label", "coherence",
            "--k", "2", "--alpha", "0.5", "--seed", "5",
            "--max-iter", "120"]
    for out in (out1, out2):
        assert main(args + ["--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_indicator_json_format(states, tmp_path):
    out = tmp_path / "r.json"
    assert main(["indicator", "--state", states["diag"], "--label", "coherence",
                 "--k", "2", "--alpha", "0.5", "--seed", "3", "--max-iter", "80",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["witness"]["dims"] == [2]


def test_verify_small_suite_passes(capsys):
    code = main(["verify", "--suite", "appendix-b", "--seed", "11",
                 "--n-samples", "10"])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_verify_inject_failure_exits_one(capsys, monkeypatch):
    failing = _cert("bounds", 1.0, 0.0, seed=11)
    monkeypatch.setattr("resourcekit.cli.run_suite",
                        lambda *args: list(rk.run_suite(*args)) + [failing])
    code = main(["verify", "--suite", "appendix-b", "--seed", "11",
                 "--n-samples", "5"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_zero_samples_vacuous_pass(capsys):
    # zero samples run nothing, theorem1's order-3 solves included
    for suite in ("appendix-b", "theorem1"):
        code = main(["verify", "--suite", suite, "--seed", "11", "--n-samples", "0"])
        assert code == 0
        assert "vacuous" in capsys.readouterr().err
        assert rk.run_suite(suite, 11, 0) == []


def test_verify_zero_samples_counts_sample_independent_checks(capsys):
    # the embedding suite's flag checks of d = 2, 3, 4 do not depend on the
    # sample count: they run, and the warning says so instead of "vacuous"
    code = main(["verify", "--suite", "embedding", "--seed", "11", "--n-samples", "0"])
    assert code == 0
    err = capsys.readouterr().err
    assert "only the 15 sample-independent checks ran" in err
    assert "vacuous" not in err
    assert len(rk.run_suite("embedding", 11, 0)) == 15


def test_verify_negative_samples_exits_two(capsys):
    assert main(["verify", "--suite", "affinity-props", "--seed", "1",
                 "--n-samples", "-3"]) == 2
    assert "n_samples" in capsys.readouterr().err


def test_indicator_negative_effort_exits_two(tmp_path, capsys):
    # order 2 is solved in closed form, yet its effort is validated alike
    path = tmp_path / "qutrit.json"
    rk.save_state(rk.random_mixed([3], 3, seed=11), path)
    for k in ("3", "2"):
        assert main(["indicator", "--state", str(path), "--label", "coherence",
                     "--k", k, "--alpha", "0.5", "--seed", "3", "--max-iter", "-5"]) == 2
        assert "max_iter" in capsys.readouterr().err


def test_no_restarts_option(states, capsys):
    # a solve's effort is --max-iter alone
    for cmd in (["indicator", "--label", "coherence"], ["embed"]):
        assert main(cmd + ["--state", states["plus"], "--k", "2", "--alpha", "0.5",
                           "--seed", "3", "--restarts", "1"]) == 2
        assert "--restarts" in capsys.readouterr().err


def test_verify_writes_csv(tmp_path, capsys):
    out = tmp_path / "certs.csv"
    assert main(["verify", "--suite", "affinity-props", "--seed", "11",
                 "--n-samples", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,seed,alpha,lhs,rhs,slack"
    assert len(lines) > 8


def test_embed_diagonal_state(states, tmp_path, capsys):
    out = tmp_path / "embed.json"
    code = main(["embed", "--state", states["diag"], "--k", "2",
                 "--alpha", "0.5", "--seed", "9", "--max-iter", "60",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    for row in doc["depths"]:
        assert row["rank"] == 1
        assert row["sep_depth"] == 3  # d + 1 for d = 2
        assert row["ent_depth"] == 1
    report = doc["transport"]["k=2,alpha=0.5"]
    for row in report["rows"]:
        assert row["slack"] >= -1e-8


def test_embed_plus_state(states, capsys):
    code = main(["embed", "--state", states["plus"], "--k", "2",
                 "--alpha", "0.5", "--seed", "9", "--max-iter", "100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["transport"]["k=2,alpha=0.5"]["rows"][0]
    assert row["rhs"] == pytest.approx(0.2928932, abs=1e-6)


def test_format_only_where_honoured(states, capsys):
    # verify and embed have one output form each, so they refuse --format
    assert main(["verify", "--suite", "appendix-b", "--seed", "11",
                 "--n-samples", "1", "--format", "json"]) == 2
    assert main(["embed", "--state", states["diag"], "--k", "2", "--alpha", "0.5",
                 "--seed", "9", "--format", "json"]) == 2
