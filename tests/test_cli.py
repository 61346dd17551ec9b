import json

import numpy as np
import pytest

from homogenize.cli import (EXIT_CONFIG, EXIT_GUARD, EXIT_SOLVER,
                            ConfigError, apply_overrides, load_config, main)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**extra):
    doc = {
        "geometry": {"dimension": 2, "half_period": 2},
        "law": {"kind": "constant", "params": [1.0]},
        "seed": 0,
    }
    doc.update(extra)
    return doc


def run_cli(subcommand, config_path, tmp_path, *extra_args):
    return main([subcommand, "--config", config_path,
                 "--output-dir", str(tmp_path / "out"), *extra_args])


def test_diffusivity_constant_environment(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert run_cli("diffusivity", cfg, tmp_path) == 0
    artifacts = list((tmp_path / "out").glob("diffusivity_seed0_*.json"))
    assert len(artifacts) == 1
    doc = json.loads(artifacts[0].read_text())
    entries = np.array(doc["effective_matrix"]["entries"])
    assert np.allclose(entries, 2.0 * np.eye(2), atol=1e-8)
    assert doc["version"]
    assert len(doc["config_hash"]) == 8


def test_converge_writes_csv_and_json(tmp_path):
    cfg = write_config(tmp_path, base_config(
        campaign={"N_list": [2, 4], "replicas": 2}))
    assert run_cli("converge", cfg, tmp_path) == 0
    out = tmp_path / "out"
    csvs = list(out.glob("converge_seed0_*.csv"))
    jsons = list(out.glob("converge_seed0_*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    assert csvs[0].read_text().splitlines()[0].startswith("seed,d,N,c,law")
    doc = json.loads(jsons[0].read_text())
    assert [row["N"] for row in doc["table"]] == [2, 4]


def test_concentrate_reports_tail_frequencies(tmp_path):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]},
        campaign={"N_list": [2], "replicas": 4, "epsilons": [0.1]}))
    assert run_cli("concentrate", cfg, tmp_path) == 0
    doc = json.loads(next((tmp_path / "out").glob("concentrate_*.json")).read_text())
    assert "std" in doc["table"][0]


def test_walk_and_spectral_and_resolvent(tmp_path):
    cfg = write_config(tmp_path, base_config(
        walk={"t": 5.0, "walkers": 200},
        spectral={"n": 1.0},
        resolvent={"lambdas": [1.0, 0.1]}))
    for sub in ("walk", "spectral", "resolvent"):
        assert run_cli(sub, cfg, tmp_path) == 0
    out = tmp_path / "out"
    walk = json.loads(next(out.glob("walk_*.json")).read_text())
    assert walk["walkers"] == 200
    spec = json.loads(next(out.glob("spectral_*.json")).read_text())
    # constant medium: drift vanishes, so no spectral mass and D = 2
    assert spec["total_mass"] <= 1e-12
    assert abs(spec["diffusivity_via_spectrum"] - 2.0) <= 1e-8
    res = json.loads(next(out.glob("resolvent_*.json")).read_text())
    assert len(res["table"]) == 2


def test_surface_tension_artifact(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert run_cli("surface-tension", cfg, tmp_path) == 0
    doc = json.loads(next((tmp_path / "out").glob("surface_tension_*.json")).read_text())
    assert abs(doc["sigma"] - 0.5) <= 1e-8
    assert doc["residual"] <= 1e-8


def test_hamming_artifact(tmp_path):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]},
        hamming={"perturb_counts": [1], "trials": 2}))
    assert run_cli("hamming", cfg, tmp_path) == 0
    doc = json.loads(next((tmp_path / "out").glob("hamming_*.json")).read_text())
    assert len(doc["pairs"]) == 2


def test_missing_config_exits_2_without_artifacts(tmp_path, capsys):
    assert run_cli("diffusivity", str(tmp_path / "absent.json"), tmp_path) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == EXIT_CONFIG
    assert err["error"]["kind"] == "config"


def test_unknown_key_rejected(tmp_path):
    # threads and the two solver keys were once accepted and then ignored
    for extra in ({"typo_key": 1}, {"threads": 2},
                  {"solver": {"max_iterations": 1}},
                  {"solver": {"jacobi": True}}):
        cfg = write_config(tmp_path, base_config(**extra))
        assert run_cli("diffusivity", cfg, tmp_path) == EXIT_CONFIG, extra
        assert not (tmp_path / "out").exists()


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("diffusivity", str(path), tmp_path) == EXIT_CONFIG


def test_size_guard_exit_code(tmp_path):
    cfg = write_config(tmp_path, base_config(
        geometry={"dimension": 3, "half_period": 9}))
    assert run_cli("spectral", cfg, tmp_path) == EXIT_GUARD
    cfg = write_config(tmp_path, base_config())
    assert run_cli("walk", cfg, tmp_path,
                   "--set", f"walk.walkers={10 ** 30}") == EXIT_GUARD
    assert not (tmp_path / "out").exists()


def test_solver_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]},
        surface={"max_steps": 1}))
    assert run_cli("surface-tension", cfg, tmp_path) == EXIT_SOLVER
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand,section", [
    ("converge", {"campaign": {"N_list": [2, 4], "replicas": 3}}),
    ("hamming", {"hamming": {"perturb_counts": [1, 2], "trials": 3}}),
])
def test_stalled_stack_exit_code(tmp_path, monkeypatch, subcommand, section):
    from homogenize import solver
    monkeypatch.setattr(solver, "_maxiter", lambda fld, tol: 1)
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]}, **section))
    assert run_cli(subcommand, cfg, tmp_path) == EXIT_SOLVER
    assert not (tmp_path / "out").exists()


def test_dotted_overrides(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert run_cli("diffusivity", cfg, tmp_path,
                   "--set", "solver.tol=1e-8",
                   "--set", "geometry.half_period=3") == 0
    doc = json.loads(next((tmp_path / "out").glob("diffusivity_*.json")).read_text())
    assert doc["effective_matrix"]["half_period"] == 3


def test_override_schema_still_enforced(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert run_cli("diffusivity", cfg, tmp_path,
                   "--set", "solver.bogus=1") == EXIT_CONFIG


def test_apply_overrides_parses_json_values():
    doc = apply_overrides({}, ["a.b=[1,2]", "c=hello", "d=2.5"])
    assert doc == {"a": {"b": [1, 2]}, "c": "hello", "d": 2.5}


def test_non_finite_and_non_object_configs_are_config_errors(tmp_path):
    cfg = write_config(tmp_path, base_config())
    for text in ("walk.t=Infinity", "walk.t=-Infinity", "walk.t=1e400",
                 "vector=[NaN,0]"):
        with pytest.raises(ConfigError, match="is not a finite number"):
            load_config(cfg, [text])
    array_root = write_config(tmp_path, [], name="array.json")
    with pytest.raises(ConfigError, match="root is not an object"):
        load_config(array_root, ["seed=1"])


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]}))
    assert run_cli("diffusivity", cfg, tmp_path) == 0
    artifact = next((tmp_path / "out").glob("diffusivity_*.json"))
    first = artifact.read_bytes()
    assert run_cli("diffusivity", cfg, tmp_path) == 0
    assert artifact.read_bytes() == first


def test_vector_length_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, base_config(vector=[1.0, 0.0, 0.0]))
    assert run_cli("diffusivity", cfg, tmp_path) == EXIT_CONFIG


@pytest.mark.parametrize("subcommand,extra,message", [
    ("diffusivity", {"law": {"kind": "uniform", "params": [2, 1]}}, "0 < a <= b"),
    ("diffusivity", {"law": {"kind": "constant", "params": [1, 2]}},
     "constant law takes 1 params, got 2"),
    ("converge", {"campaign": {"N_list": [4, 2]}}, "increasing"),
    ("converge", {"campaign": {"N_list": [2, 2]}}, "increasing"),
    ("converge", {"campaign": {"N_list": []}}, "campaign.N_list"),
    ("walk", {"walk": {"t": 0}}, "walk.t"),
    ("spectral", {"spectral": {"n": -1}}, "spectral.n"),
    ("spectral", {"spectral": {"walkers": 100}}, "'n' is a dependency of 'walkers'"),
    ("hamming", {"hamming": {"perturb_counts": []}}, "hamming.perturb_counts"),
    ("hamming", {"hamming": {"perturb_counts": [1000]}}, "1000 of the 32 bonds"),
    ("diffusivity", {"solver": {"tol": -1}}, "solver.tol"),
    ("diffusivity", {"solver": {"tol": 0}}, "solver.tol"),
    ("diffusivity", {"solver": {"tol": float("nan")}}, "NaN is not a finite"),
    ("walk", {"walk": {"t": float("nan")}}, "NaN is not a finite"),
], ids=["uniform_reversed", "constant_two_params", "N_list_decreasing",
        "N_list_repeated", "N_list_empty", "walk_t_zero", "spectral_n_negative",
        "spectral_walkers_without_n",
        "perturb_counts_empty", "perturb_counts_too_many", "tol_negative",
        "tol_zero", "tol_nan", "walk_t_nan"])
def test_bad_config_values_exit_2_with_message(tmp_path, capsys, subcommand,
                                               extra, message):
    cfg = write_config(tmp_path, base_config(**extra))
    assert run_cli(subcommand, cfg, tmp_path) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert message in err["message"]
    assert not (tmp_path / "out").exists()


def test_program_bug_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a config value")

    monkeypatch.setattr("homogenize.cli.effective_matrix", broken)
    cfg = write_config(tmp_path, base_config())
    # the error propagates, so the interpreter exits 1 with a traceback, not 2
    with pytest.raises(ValueError, match="a bug"):
        run_cli("diffusivity", cfg, tmp_path)
