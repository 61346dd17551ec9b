"""Command-line front end: JSON config in, JSON/CSV artifacts out.

Subcommands: diffusivity, converge, concentrate, hamming, walk, spectral,
surface-tension, resolvent.  Configs are checked against the closed
CONFIG_SCHEMA (unknown keys rejected) before any computation, by a built-in
checker for the JSON Schema keywords that schema uses; dotted --set
overrides are applied after file parsing.  Exit codes: 0 success, 2
config/schema violation, 3 solver non-convergence, 4 size-guard violation
(a torus above MAX_SITES sites, a dense solve on a large torus, a walk
with too many walkers or jumps, or a campaign or Hamming study above
MAX_RECORDS records).  run is the one place where results become artifact
text.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .environment import (DisorderLaw, SizeGuardError, TorusGeometry,
                          guard_sites, sample_environment)
from .diffusivity import DIAGNOSTICS, LP_EXPONENTS, effective_matrix
from .operators import drift_vector
from .solver import DEFAULT_TOL, ConvergenceError
from .spectral import (diffusivity_via_spectrum, semigroup_moment,
                       semigroup_moment_mc, spectral_measure)
from .walker import msd_estimate
from .experiments import (DEFAULT_EPSILONS, DEFAULT_MAX_STEPS, CampaignConfig,
                          TooManyBondsError,
                          concentration_study, convergence_study,
                          hamming_sensitivity, resolvent_convergence,
                          run_campaign, surface_tension)

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GUARD = 4

# Largest c * max(1, |v|_1) a run accepts: results reach its fourth power
# (the Lp norms), far inside the double range.
MAX_SCALE = 2.0 ** 64
MAX_NAME = 255   # bytes in an artifact file name (NAME_MAX)

_NUM = {"type": "number"}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["geometry", "law", "seed"],
    "properties": {
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dimension", "half_period"],
            "properties": {
                "dimension": {"type": "integer", "minimum": 1},
                "half_period": {"type": "integer", "minimum": 1},
            },
        },
        "law": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "params"],
            "properties": {
                "kind": {"enum": ["constant", "uniform", "two_point", "discrete"]},
                "params": {"type": "array", "items": _NUM},
                "probs": {"type": "array", "items": _NUM},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "vector": {"type": "array", "items": _NUM, "minItems": 1},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tol": {"type": "number", "exclusiveMinimum": 0}},
        },
        "campaign": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "N_list": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 1}},
                "replicas": {"type": "integer", "minimum": 2},
                "epsilons": {"type": "array", "uniqueItems": True,
                             "items": _NUM},
            },
        },
        "walk": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"t": {"type": "number", "exclusiveMinimum": 0},
                           "walkers": {"type": "integer", "minimum": 2},
                           "start": {"enum": ["origin", "uniform"]}},
        },
        "spectral": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"n": {"type": "number", "minimum": 0},
                           "walkers": {"type": "integer", "minimum": 2}},
            "dependentRequired": {"walkers": ["n"]},
        },
        "hamming": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "perturb_counts": {"type": "array", "minItems": 1,
                                   "uniqueItems": True,
                                   "items": {"type": "integer", "minimum": 0}},
                "trials": {"type": "integer", "minimum": 1},
            },
        },
        "resolvent": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"lambdas": {"type": "array", "uniqueItems": True,
                                       "items": {"type": "number",
                                                 "exclusiveMinimum": 0}}},
        },
        "surface": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"max_steps": {"type": "integer", "minimum": 1}},
        },
    },
}


class ConfigError(ValueError):
    pass


_TYPES = {"object": dict, "array": list}


def _is_type(value, name: str) -> bool:
    """JSON Schema types: a bool is no number, and 2.0 is an integer; an
    integer beyond the double range is no number, as 1e400 is none."""
    if name in _TYPES:
        return isinstance(value, _TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if name == "integer":
        return isinstance(value, int) or value.is_integer()
    try:
        return math.isfinite(float(value))
    except OverflowError:   # an integer beyond the double range
        return False


def _json_key(value):
    """A hashable key, equal for equal JSON values (1 and 1.0, not true and 1)."""
    if isinstance(value, list):
        return "array", tuple(map(_json_key, value))
    if isinstance(value, dict):
        return "object", frozenset((k, _json_key(v)) for k, v in value.items())
    return isinstance(value, bool), value


def _check(value, schema: dict, path: str = "$"):
    """Raise ConfigError at the first violation of schema by value.

    Returns value with every integer-typed number an int (2.0 runs as 2);
    items and properties are converted in place.

    Handles exactly the keywords CONFIG_SCHEMA uses: type, enum, minimum,
    exclusiveMinimum, minItems, uniqueItems, items, properties,
    additionalProperties (as false only), required and dependentRequired.
    Verdicts, JSON paths and messages follow the JSON Schema Draft 2020-12
    reference validator; tests/test_cli.py runs it as the oracle and fails if
    the schema uses any other keyword.
    """
    def fail(message: str):
        raise ConfigError(f"config violates schema at {path}: {message}")

    if "type" in schema and not _is_type(value, schema["type"]):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and value not in schema["enum"]:  # string enums only
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _is_type(value, "integer") or _is_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is less than or equal to the minimum of "
                 f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        least = schema.get("minItems", 0)
        if len(value) < least:
            fail(f"{value!r} " + ("should be non-empty" if least == 1
                                  else "is too short"))
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            fail(f"{value!r} has non-unique elements")
        if "items" in schema:
            for i, item in enumerate(value):
                value[i] = _check(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extra = sorted(key for key in value if key not in properties)
        if schema.get("additionalProperties") is False and extra:
            fail("Additional properties are not allowed ("
                 + ", ".join(map(repr, extra))
                 + (" was" if len(extra) == 1 else " were") + " unexpected)")
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        for key, needs in schema.get("dependentRequired", {}).items():
            for need in needs:
                if key in value and need not in value:
                    fail(f"{need!r} is a dependency of {key!r}")
        for key, sub in properties.items():
            if key in value:
                value[key] = _check(value[key], sub, f"{path}.{key}")
    return int(value) if schema.get("type") == "integer" else value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text} is not a finite number")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts
        raise ConfigError(f"an integer of {len(text.lstrip('-'))} digits is "
                          "too long to convert") from None


def _json_value(text: str):
    """json.loads that rejects NaN, +-Infinity, numbers that overflow and
    integers too long to convert."""
    return json.loads(text, parse_float=_finite, parse_int=_integer,
                      parse_constant=_finite)


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = _json_value(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_overrides(config: dict, overrides) -> dict:
    """Apply dotted-path overrides (e.g. solver.tol=1e-8) after parsing."""
    if not isinstance(config, dict):
        raise ConfigError("config root is not an object")
    for text in overrides:
        path, value = _parse_override(text)
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {text!r} crosses a non-object")
        node[path[-1]] = value
    return config


def load_config(path: str, overrides=()) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path!r} does not exist")
    try:
        config = _json_value(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return _check(apply_overrides(config, overrides), CONFIG_SCHEMA)


def _from_config(section: str, build, *args, **kwargs):
    """build(*args, **kwargs) on config values; its ValueError is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _common(config: dict):
    geom = _from_config("geometry", TorusGeometry, **config["geometry"])
    law = _from_config("law", DisorderLaw.from_json, config["law"])
    tol = config.get("solver", {}).get("tol", DEFAULT_TOL)
    # every torus a subcommand builds has this dimension and at least the
    # unit torus's 2^d sites, so refuse it before v is built
    guard_sites(TorusGeometry(geom.dimension, 1))
    v = _from_config("vector", drift_vector, geom.dimension,
                     config.get("vector", np.eye(1, geom.dimension)[0]))
    scale = law.ellipticity() * max(1.0, float(np.abs(v).sum()))
    if scale > MAX_SCALE:
        raise ConfigError(f"scale c * max(1, |vector|_1) = {scale:.3g} of law "
                          "and vector exceeds 2^64")
    return geom, law, tol, v


def _campaign_config(config: dict, geom, law, tol) -> CampaignConfig:
    camp = config.get("campaign", {})
    return _from_config(
        "campaign", CampaignConfig, law=law, dimension=geom.dimension,
        N_list=tuple(camp.get("N_list", [geom.half_period])),
        replicas=camp.get("replicas", 50), tol=tol,
        master_seed=config["seed"])


def config_hash(doc: dict) -> str:
    """Stable 8-hex digest of a JSON-serializable configuration."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def records_to_csv(records: np.recarray, config: CampaignConfig) -> str:
    """One CSV row per record of run_campaign; '.' decimals, '\\n' endings,
    repr floats.

    A non-finite number raises ValueError: the config guards keep every
    number finite, so one is a program bug.
    """
    d = config.dimension
    law_desc = json.dumps(config.law.to_json(), sort_keys=True,
                          separators=(",", ":"))
    c = repr(float(config.law.ellipticity()))
    names = DIAGNOSTICS.names[:-1]   # the scalar diagnostics; lp_norms is last
    header = (["seed", "d", "N", "c", "law"]
              + [f"D_{i}{j}" for i in range(d) for j in range(d)]
              + ["asymmetry", *names]
              + [f"lp_{p}" for p in LP_EXPONENTS]
              + ["iterations"])
    diag = records.diagnostics
    nums = np.column_stack([records.entries.reshape(len(records), -1),
                            records.asymmetry, *(diag[k] for k in names),
                            diag["lp_norms"]])
    if not np.isfinite(nums).all():
        raise ValueError("non-finite number in the campaign records")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for seed, n, row, iterations in zip(records.seed.tolist(), records.N.tolist(),
                                        nums, records.iterations.tolist()):
        writer.writerow([seed, d, n, c, law_desc,
                         *map(repr, row.tolist()), iterations])
    return buf.getvalue()


def run(subcommand: str, config: dict, outdir: Path) -> list[Path]:
    """Execute one subcommand; returns the written artifact paths.

    Nothing is written, and outdir is not created, unless the computation
    succeeds.  Numpy arrays and scalars in a result are written as JSON
    lists and numbers; NaN and infinities are refused.
    """
    geom, law, tol, v = _common(config)
    seed = config["seed"]
    digest = config_hash(config)
    stem = f"{subcommand.replace('-', '_')}_seed{seed}_{digest}"
    size = len(f"{stem}.json".encode())
    if size > MAX_NAME:
        raise ConfigError(f"seed: an artifact name of {size} bytes exceeds "
                          f"{MAX_NAME}")
    texts = {}  # file extension -> artifact text, written in this order
    # campaigns sample their own replicas; every other subcommand one field
    if subcommand not in ("converge", "concentrate"):
        fld = sample_environment(law, geom, seed)

    if subcommand == "diffusivity":
        mat = effective_matrix(fld, tol=tol)
        payload = {"effective_matrix": {
            "dimension": geom.dimension, "half_period": geom.half_period,
            "entries": mat.entries, "linear_form_entries": mat.linear_form_entries,
            "asymmetry": mat.asymmetry, "iterations": mat.iterations,
            "diagnostics": [
                {**{name: diag[name].tolist() for name in DIAGNOSTICS.names},
                 "lp_norms": dict(zip(map(str, LP_EXPONENTS),
                                      diag["lp_norms"].tolist()))}
                for diag in mat.diagnostics]}}

    elif subcommand in ("converge", "concentrate"):
        camp_cfg = _campaign_config(config, geom, law, tol)
        records = run_campaign(camp_cfg)
        if subcommand == "converge":
            study = convergence_study(records)
        else:
            eps = tuple(config.get("campaign", {}).get("epsilons", DEFAULT_EPSILONS))
            study = concentration_study(records, v, epsilons=eps)
        texts["csv"] = records_to_csv(records, camp_cfg)
        payload = {"config": camp_cfg.to_json(), **study}

    elif subcommand == "hamming":
        ham = config.get("hamming", {})
        result = hamming_sensitivity(fld, v, ham.get("perturb_counts", [1, 4, 16]),
                                     ham.get("trials", 20), law, tol=tol,
                                     seed=seed)
        # str keys: with int keys sort_keys would put 16 after 4 and move bytes
        payload = {**result, "medians": {str(k): val for k, val
                                         in result["medians"].items()}}

    elif subcommand == "walk":
        walk = config.get("walk", {})
        t, walkers = walk.get("t", 100.0), walk.get("walkers", 10_000)
        est, se = msd_estimate(fld, v, t, walkers, seed,
                               start=walk.get("start", "origin"))
        payload = {"msd_estimate": est, "standard_error": se,
                   "t": t, "walkers": walkers}

    elif subcommand == "spectral":
        spec = config.get("spectral", {})
        meas = spectral_measure(fld, v)
        payload = {
            "spectral_measure": {
                "atoms": np.column_stack((meas.eigenvalues, meas.weights))},
            "total_mass": meas.total_mass,
            "max_eigenvalue": meas.max_eigenvalue,
            "diffusivity_via_spectrum": diffusivity_via_spectrum(meas),
        }
        n = spec.get("n")
        if n is not None:
            payload["semigroup_moment"] = {
                "n": n, "value": semigroup_moment(meas, n)}
            walkers = spec.get("walkers")
            if walkers:
                est, se = semigroup_moment_mc(fld, v, n, walkers, seed=seed)
                payload["semigroup_moment_mc"] = {
                    "estimate": est, "standard_error": se, "walkers": walkers}

    elif subcommand == "surface-tension":
        max_steps = config.get("surface", {}).get("max_steps", DEFAULT_MAX_STEPS)
        sigma, quarter, residual, certificate = surface_tension(
            fld, v, tol=tol, max_steps=max_steps)
        payload = {"sigma": sigma, "quarter_form": quarter, "residual": residual,
                   "certificate": certificate}

    elif subcommand == "resolvent":
        lambdas = config.get("resolvent", {}).get("lambdas", [1.0, 0.1, 0.01, 0.001])
        payload = {"table": resolvent_convergence(fld, v, lambdas, tol=tol)}

    else:
        raise ConfigError(f"unknown subcommand {subcommand!r}")

    payload.update(config_hash=digest, version=__version__)
    texts["json"] = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                               default=lambda o: o.tolist()) + "\n"
    outdir.mkdir(parents=True, exist_ok=True)
    written = [outdir / f"{stem}.{ext}" for ext in texts]
    for path, text in zip(written, texts.values()):
        path.write_text(text)
    return written


SUBCOMMANDS = ("diffusivity", "converge", "concentrate", "hamming", "walk",
               "spectral", "surface-tension", "resolvent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homogenize",
        description="Finite-volume effective diffusivity toolkit")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path override, e.g. solver.tol=1e-8")
    parser.add_argument("--output-dir", default=".",
                        help="directory the artifacts are written to (default: .)")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    def fail(code: int, kind: str, message: str) -> int:
        print(json.dumps({"error": {"code": code, "kind": kind,
                                    "message": message}}), file=sys.stderr)
        return code

    try:
        config = load_config(args.config, args.overrides)
        written = run(args.subcommand, config, Path(args.output_dir))
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except TooManyBondsError as exc:
        return fail(EXIT_CONFIG, "config", f"hamming: {exc}")
    except ConvergenceError as exc:
        return fail(EXIT_SOLVER, "solver",
                    f"{exc} (residual {exc.residual:.3e})")
    except SizeGuardError as exc:
        return fail(EXIT_GUARD, "guard", str(exc))
    for path in written:
        print(str(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
