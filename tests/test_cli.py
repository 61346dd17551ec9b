import copy
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from homogenize import __version__
from homogenize.cli import (CONFIG_SCHEMA, EXIT_CONFIG, EXIT_GUARD, EXIT_SOLVER,
                            SUBCOMMANDS, ConfigError, apply_overrides,
                            load_config, main)

ORACLE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


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
    # the hash of the whole config, the one in the file name
    assert jsons[0].stem.endswith("_" + doc["config_hash"])
    assert doc["version"] == __version__


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


def test_resolvent_down_to_the_smallest_lambda(tmp_path):
    cfg = write_config(tmp_path, base_config(
        geometry={"dimension": 2, "half_period": 8},
        law={"kind": "uniform", "params": [0.2, 5.0]}, seed=3))
    assert run_cli("resolvent", cfg, tmp_path,
                   "--set", "resolvent.lambdas=[1e-3,1e-30,1e-300]") == 0
    res = json.loads(next((tmp_path / "out").glob("resolvent_*.json")).read_text())
    discs = [row["discrepancy"] for row in res["table"]]
    assert len(discs) == 3 and discs[0] >= discs[1] >= discs[2]


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
    # threads and the two solver keys were once accepted and then ignored;
    # output_dir duplicated --output-dir
    for extra in ({"typo_key": 1}, {"threads": 2},
                  {"solver": {"max_iterations": 1}},
                  {"solver": {"jacobi": True}}, {"output_dir": "out"}):
        cfg = write_config(tmp_path, base_config(**extra))
        assert run_cli("diffusivity", cfg, tmp_path) == EXIT_CONFIG, extra
        assert not (tmp_path / "out").exists()


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("diffusivity", str(path), tmp_path) == EXIT_CONFIG
    path.write_bytes(json.dumps(base_config()).encode() + b"\xff")  # not UTF-8
    assert run_cli("diffusivity", str(path), tmp_path) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_over_long_integer_is_a_config_error(tmp_path, capsys):
    # more digits than Python's int() converts by default (4,300)
    digits = "7" * 5000
    cfg = write_config(tmp_path, base_config())
    in_file = tmp_path / "long.json"
    in_file.write_text(Path(cfg).read_text().replace('"seed": 0', f'"seed": {digits}'))
    for path, extra in ((str(in_file), ()), (cfg, ("--set", f"seed={digits}"))):
        assert run_cli("diffusivity", path, tmp_path, *extra) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and "5000 digits" in err["message"]
    assert not (tmp_path / "out").exists()


def assert_finite(path):
    """Fail if a JSON artifact holds NaN or +-Infinity, or a CSV cell is not finite."""
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=lambda token: pytest.fail(f"{path.name}: {token}"))
        return
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        del row[4]   # the law column
        assert all(math.isfinite(float(cell)) for cell in row), path.name


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_results_beyond_the_double_range_are_config_errors(tmp_path, capsys,
                                                           subcommand):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]},
        walk={"t": 5.0, "walkers": 200}))
    # c * max(1, |v|_1) above 2^64 is refused before any draw
    for override in ("vector=[1e200,1e200]", "law.params=[1.0,1e200]"):
        assert run_cli(subcommand, cfg, tmp_path, "--set", override) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and "2^64" in err["message"], override
    assert not (tmp_path / "out").exists()
    # just below it every artifact is finite, or the walker's jump guard refuses
    for name, override in (("vector", "vector=[9.2e18,0]"),
                           ("law", "law.params=[1.0,1.8e19]")):
        out = tmp_path / name
        code = main([subcommand, "--config", cfg, "--set", override,
                     "--output-dir", str(out)])
        if code == EXIT_GUARD:
            assert subcommand == "walk" and not out.exists(), override
            continue
        assert code == 0 and any(out.iterdir()), override
        for path in out.iterdir():
            assert_finite(path)


def test_artifact_names_are_checked_before_any_computation(tmp_path, capsys,
                                                           monkeypatch):
    cfg = write_config(tmp_path, base_config())

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled an environment")

    with monkeypatch.context() as patch:
        patch.setattr("homogenize.cli.sample_environment", unreachable)
        patch.setattr("homogenize.cli.run_campaign", unreachable)
        for subcommand in SUBCOMMANDS:
            assert run_cli(subcommand, cfg, tmp_path,
                           "--set", "seed=" + "9" * 300) == EXIT_CONFIG
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["kind"] == "config" and "exceeds 255" in err["message"]
    assert not (tmp_path / "out").exists()
    # the longest subcommand name with a 200-digit seed still fits
    assert run_cli("surface-tension", cfg, tmp_path, "--set", "seed=" + "9" * 200) == 0
    [path] = (tmp_path / "out").iterdir()
    assert path.name.startswith("surface_tension_seed" + "9" * 200 + "_")


def test_size_guard_exit_code(tmp_path):
    cfg = write_config(tmp_path, base_config(
        geometry={"dimension": 3, "half_period": 9}))
    assert run_cli("spectral", cfg, tmp_path) == EXIT_GUARD
    # atom 1 of -L within eps * lambda_max of 0: the spectrum is unresolved
    cfg = write_config(tmp_path, base_config(
        geometry={"dimension": 2, "half_period": 8},
        law={"kind": "two_point", "params": [1e-16, 1.0, 0.5]}))
    assert run_cli("spectral", cfg, tmp_path) == EXIT_GUARD
    cfg = write_config(tmp_path, base_config())
    for subcommand, override in (("walk", f"walk.walkers={10 ** 30}"),
                                 ("converge", f"campaign.replicas={10 ** 12}"),
                                 ("hamming", f"hamming.trials={10 ** 12}")):
        assert run_cli(subcommand, cfg, tmp_path, "--set", override) == EXIT_GUARD
    assert not (tmp_path / "out").exists()


def test_solver_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.5, 2.0]},
        surface={"max_steps": 1}))
    assert run_cli("surface-tension", cfg, tmp_path) == EXIT_SOLVER
    assert not (tmp_path / "out").exists()


def test_solver_breakdown_exits_3_with_a_finite_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        law={"kind": "uniform", "params": [0.2, 5.0]}))
    assert run_cli("diffusivity", cfg, tmp_path,
                   "--set", "solver.tol=1e-300") == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "stopped short" in err and "nan" not in err.lower()
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
    # one sample has no standard error; the estimators would report inf
    ("walk", {"walk": {"walkers": 1}}, "walk.walkers: 1 is less than the minimum of 2"),
    ("spectral", {"spectral": {"n": 1.0, "walkers": 1}},
     "spectral.walkers: 1 is less than the minimum of 2"),
    ("hamming", {"hamming": {"perturb_counts": []}}, "hamming.perturb_counts"),
    ("hamming", {"hamming": {"perturb_counts": [1000]}}, "1000 of the 32 bonds"),
    ("hamming", {"hamming": {"perturb_counts": [4, 4], "trials": 3}},
     "hamming.perturb_counts: [4, 4] has non-unique elements"),
    ("diffusivity", {"law": {"kind": "uniform", "params": [0.5, 2.0],
                             "probs": [0.3, 0.7]}}, "uniform law takes no probs"),
    ("concentrate", {"campaign": {"N_list": [2], "replicas": 2,
                                  "epsilons": [0.1, 0.1, 0.2]}},
     "campaign.epsilons: [0.1, 0.1, 0.2] has non-unique elements"),
    ("resolvent", {"resolvent": {"lambdas": [0.1, 0.1]}},
     "resolvent.lambdas: [0.1, 0.1] has non-unique elements"),
    ("diffusivity", {"solver": {"tol": -1}}, "solver.tol"),
    ("diffusivity", {"solver": {"tol": 0}}, "solver.tol"),
    ("diffusivity", {"solver": {"tol": float("nan")}}, "NaN is not a finite"),
    ("walk", {"walk": {"t": float("nan")}}, "NaN is not a finite"),
], ids=["uniform_reversed", "constant_two_params", "N_list_decreasing",
        "N_list_repeated", "N_list_empty", "walk_t_zero", "spectral_n_negative",
        "spectral_walkers_without_n", "walk_one_walker", "spectral_one_walker",
        "perturb_counts_empty", "perturb_counts_too_many",
        "perturb_counts_repeated", "uniform_with_probs", "epsilons_repeated",
        "lambdas_repeated", "tol_negative",
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


def test_site_guard_refuses_every_subcommand_before_it_allocates(tmp_path, capsys):
    # 4 * 10^10 sites in d = 2; a unit torus in 2000 dimensions, whose
    # default vector must not be cut from a 2000 x 2000 identity, and one in
    # 10^12 dimensions, whose default vector alone would take 8 TB
    for geometry in ({"dimension": 2, "half_period": 100_000},
                     {"dimension": 2000, "half_period": 1},
                     {"dimension": 10 ** 12, "half_period": 1}):
        cfg = write_config(tmp_path, base_config(geometry=geometry))
        for subcommand in SUBCOMMANDS:
            tracemalloc.start()
            start = time.perf_counter()
            try:
                code = run_cli(subcommand, cfg, tmp_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 0.5, subcommand
            assert code == EXIT_GUARD, subcommand
            assert peak < 2 ** 20, subcommand
            err = json.loads(capsys.readouterr().err)["error"]
            assert "site guard" in err["message"], subcommand
    assert not (tmp_path / "out").exists()


# A config that sets every key of CONFIG_SCHEMA.
FULL_CONFIG = {
    "geometry": {"dimension": 2, "half_period": 2},
    "law": {"kind": "discrete", "params": [0.5, 2.0], "probs": [0.5, 0.5]},
    "seed": 0,
    "vector": [1.0, 0.0],
    "solver": {"tol": 1e-8},
    "campaign": {"N_list": [2, 4], "replicas": 3, "epsilons": [0.1]},
    "walk": {"t": 5.0, "walkers": 10, "start": "origin"},
    "spectral": {"n": 1.0, "walkers": 10},
    "hamming": {"perturb_counts": [1, 4], "trials": 2},
    "resolvent": {"lambdas": [1.0, 0.1]},
    "surface": {"max_steps": 10},
}
DELETE = object()


def edited(doc, path, value):
    """A deep copy of doc with the dotted path set to value, or deleted."""
    doc = copy.deepcopy(doc)
    *parents, last = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def verdicts(tmp_path, doc):
    """(load_config's error message or None, the oracle's) for one config."""
    path = write_config(tmp_path, doc)
    try:
        load_config(path)
        ours = None
    except ConfigError as exc:
        ours = str(exc)
    errors = list(ORACLE.iter_errors(doc))
    best = jsonschema.exceptions.best_match(errors)
    theirs = None if best is None else \
        f"config violates schema at {best.json_path}: {best.message}"
    return ours, theirs, len(errors)


ORACLE_TABLE = [  # (dotted path, new value or DELETE, accepted)
    # type
    ("seed", 2.0, True), ("seed", True, False), ("seed", 2.5, False),
    ("seed", "0", False), ("seed", None, False), ("seed", 10 ** 30, True),
    ("solver.tol", True, False), ("solver.tol", 1, True),
    ("vector", [1, 0], True), ("vector", [False, 1.0], False),
    ("vector", "x", False), ("law", [], False), ("walk", 3, False),
    ("campaign.N_list", [2.0, 4.0], True),
    ("campaign.N_list", [2, 4.5], False), ("hamming.trials", 2.0, True),
    # enum
    ("law.kind", "gamma", False), ("law.kind", "uniform", True),
    ("law.kind", 1, False), ("walk.start", "uniform", True),
    ("walk.start", ["origin"], False),
    # minimum and exclusiveMinimum
    ("geometry.dimension", 0, False), ("geometry.half_period", 1, True),
    ("seed", -1, False), ("campaign.replicas", 1, False),
    ("spectral.n", 0, True), ("spectral.n", -0.5, False),
    ("hamming.perturb_counts", [0, -1], False),
    ("solver.tol", 0, False), ("solver.tol", 1e-300, True),
    ("walk.t", 0.0, False), ("walk.t", -1, False),
    ("resolvent.lambdas", [1.0, 0], False), ("resolvent.lambdas", [], True),
    # minItems
    ("campaign.N_list", [], False), ("vector", [], False),
    ("hamming.perturb_counts", [], False), ("law.params", [], True),
    # uniqueItems: JSON equality, so 4 and 4.0 are equal and true and 1 not
    ("hamming.perturb_counts", [4, 4], False),
    ("hamming.perturb_counts", [4, 4.0], False),
    ("hamming.perturb_counts", [1, True], False),
    ("hamming.perturb_counts", [0, 1, 4], True),
    ("campaign.epsilons", [0.1, 0.1], False),
    ("campaign.epsilons", [0.1, 0.2], True),
    ("resolvent.lambdas", [0.1, 0.1], False),
    # additionalProperties: false, at the root and in a section
    ("threads", 2, False), ("solver.max_iterations", 1, False),
    ("walk.bogus", 1, False), ("law.probs", [1.0], True),
    # required
    ("seed", DELETE, False), ("geometry.half_period", DELETE, False),
    ("law.kind", DELETE, False), ("vector", DELETE, True),
    # dependentRequired
    ("spectral.n", DELETE, False), ("spectral.walkers", DELETE, True),
]


@pytest.mark.parametrize("path,value,accepted", ORACLE_TABLE,
                         ids=[f"{p}={'DELETE' if v is DELETE else v!r}"
                              for p, v, _ in ORACLE_TABLE])
def test_checker_matches_the_oracle_on_each_keyword(tmp_path, path, value, accepted):
    ours, theirs, _ = verdicts(tmp_path, edited(FULL_CONFIG, path, value))
    assert (ours is None) == accepted
    assert ours == theirs  # one edit, one error: the same path and message


# Replacement values for the mutation sweep: every JSON type, both sides of
# every bound, every enum member and every schema key.
POOL = [True, False, None, -1, 0, 1, 2, 2.0, 2.5, 0.0, -0.5, 1e-300, 10 ** 20,
        "", "x", "origin", "uniform", "constant", "discrete", [], [0], [1],
        [2, 1], [0.5, 2.0], [True], ["x"], {}, {"n": 1}, {"walkers": 2}]
KEYS = ["geometry", "law", "seed", "vector", "walkers", "n", "t", "tol",
        "kind", "params", "probs", "N_list", "start", "bogus"]


def mutate(doc, rng):
    """doc with one node replaced or deleted, or one key added to an object."""
    doc = copy.deepcopy(doc)
    nodes = []  # (container, key) of every node below the root

    def collect(node):
        children = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            nodes.append((node, key))
            collect(child)

    collect(doc)
    containers = [doc] + [c[k] for c, k in nodes if isinstance(c[k], dict)]
    op = rng.randrange(3)
    if op == 0:
        container, key = rng.choice(nodes)
        container[key] = copy.deepcopy(rng.choice(POOL))
    elif op == 1:
        container, key = rng.choice(nodes)
        del container[key]
    else:
        rng.choice(containers)[rng.choice(KEYS)] = copy.deepcopy(rng.choice(POOL))
    return doc


def test_checker_matches_the_oracle_on_seeded_mutations(tmp_path):
    rng = random.Random(20261018)
    accepted = rejected = 0
    for _ in range(3000):
        doc = mutate(FULL_CONFIG, rng)
        if rng.random() < 0.5:
            doc = mutate(doc, rng)
        ours, theirs, errors = verdicts(tmp_path, doc)
        assert (ours is None) == (theirs is None), (doc, ours, theirs)
        if errors == 1:
            assert ours == theirs, doc
        accepted += ours is None
        rejected += ours is not None
    assert min(accepted, rejected) >= 300  # both verdicts well sampled


SUPPORTED_KEYWORDS = {"type", "properties", "additionalProperties", "required",
                      "enum", "minimum", "exclusiveMinimum", "minItems",
                      "uniqueItems", "items", "dependentRequired"}


def unsupported_keywords(schema, path="$"):
    """Keywords of schema, and of its subschemas, the CLI's checker ignores."""
    out = [f"{path}: {key}" for key in sorted(set(schema) - SUPPORTED_KEYWORDS)]
    if schema.get("additionalProperties", False) is not False:
        out.append(f"{path}: additionalProperties other than false")
    if not all(isinstance(each, str) for each in schema.get("enum", ())):
        out.append(f"{path}: enum member other than a string")
    for key, sub in schema.get("properties", {}).items():
        out += unsupported_keywords(sub, f"{path}.{key}")
    if "items" in schema:
        out += unsupported_keywords(schema["items"], f"{path}[]")
    return out


def test_unsupported_schema_keyword_is_detected():
    planted = {"type": "object", "additionalProperties": True, "properties": {
        "a": {"type": "integer", "maximum": 3},
        "b": {"type": "array", "items": {"pattern": "x", "enum": [1]}}}}
    assert unsupported_keywords(planted) == [
        "$: additionalProperties other than false", "$.a: maximum",
        "$.b[]: pattern", "$.b[]: enum member other than a string"]


def test_config_schema_uses_only_supported_keywords():
    assert unsupported_keywords(CONFIG_SCHEMA) == []


def test_cli_imports_no_schema_library(tmp_path):
    cfg = write_config(tmp_path, FULL_CONFIG)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, homogenize.cli\n"
            f"homogenize.cli.load_config({cfg!r})\n"
            "print('jsonschema' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def integer_keys(schema, path=""):
    """Dotted paths of the integer-typed keys of schema; `[]` marks items."""
    if schema.get("type") == "integer":
        return [path]
    out = []
    for key, sub in schema.get("properties", {}).items():
        out += integer_keys(sub, f"{path}.{key}".lstrip("."))
    if "items" in schema:
        out += integer_keys(schema["items"], path + "[]")
    return out


# The subcommand that reads each integer key of CONFIG_SCHEMA.
INTEGER_KEY_READERS = {
    "geometry.dimension": "diffusivity", "geometry.half_period": "diffusivity",
    "seed": "diffusivity", "campaign.N_list[]": "converge",
    "campaign.replicas": "converge", "walk.walkers": "walk",
    "spectral.walkers": "spectral", "hamming.perturb_counts[]": "hamming",
    "hamming.trials": "hamming", "surface.max_steps": "surface-tension",
}


def test_integer_keys_are_the_ten_known():
    assert sorted(integer_keys(CONFIG_SCHEMA)) == sorted(INTEGER_KEY_READERS)


# FULL_CONFIG with enough descent steps for surface-tension to converge.
RUNNABLE = edited(FULL_CONFIG, "surface.max_steps", 1000)


def artifacts(tmp_path, doc, subcommand, name):
    """(exit code, {artifact name: bytes}) of one run of doc."""
    out = tmp_path / name
    code = main([subcommand, "--config", write_config(tmp_path, doc, f"{name}.json"),
                 "--output-dir", str(out)])
    return code, {p.name: p.read_bytes() for p in out.glob("*")}


@pytest.mark.parametrize("key", integer_keys(CONFIG_SCHEMA))
def test_integer_valued_float_runs_as_the_integer(tmp_path, key):
    path = key.removesuffix("[]")
    section, _, name = path.rpartition(".")
    value = (RUNNABLE[section] if section else RUNNABLE)[name]
    as_float = [float(v) for v in value] if key.endswith("[]") else float(value)
    subcommand = INTEGER_KEY_READERS[key]
    code, files = artifacts(tmp_path, RUNNABLE, subcommand, "int")
    assert code == 0 and files
    assert artifacts(tmp_path, edited(RUNNABLE, path, as_float), subcommand,
                     "float") == (code, files)


def test_number_keys_keep_the_value_given(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG),
                         ["walk.t=100.0", "seed=3.0"])
    assert config["walk"]["t"] == 100.0 and isinstance(config["walk"]["t"], float)
    assert config["seed"] == 3 and isinstance(config["seed"], int)


def without_hash(files):
    """(suffix, bytes) of each artifact, its config_hash blanked."""
    return sorted((Path(name).suffix,
                   re.sub(rb'"config_hash": "[0-9a-f]{8}"', b"", data))
                  for name, data in files.items())


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_scalar_subcommand_reads_vector(tmp_path, subcommand):
    runs = {name: artifacts(tmp_path, doc, subcommand, name) for name, doc in (
        ("unset", edited(RUNNABLE, "vector", DELETE)),
        ("e1", edited(RUNNABLE, "vector", [1.0, 0.0])),
        ("e2", edited(RUNNABLE, "vector", [0.0, 1.0])))}
    assert all(code == 0 and files for code, files in runs.values())
    unset, e1, e2 = (without_hash(files) for _, files in runs.values())
    assert e1 == unset
    # diffusivity and converge report the whole matrix, whatever the vector
    assert (e2 == e1) == (subcommand in ("diffusivity", "converge"))
