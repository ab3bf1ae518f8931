"""Run configuration: JSON ingestion, validation, and state assembly.

A configuration is one JSON object with a `bath` section (either three
relaxation rates or a full symmetric matrix, plus the bath vector), an
`initial` section holding exactly one state variant, and an optional
`integrator` section.  Complex amplitudes are written as [re, im] pairs;
bare numbers are taken as real.  Parsing normalizes to a canonical form, so
parse -> serialize is idempotent.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .bath import BathValidityError, make_bath
from .pauli_algebra import check_density_matrix, convert, tau_of


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass
class RunConfig:
    """Normalized configuration: bath + initial-state variant + integrator."""

    bath: dict
    initial: dict
    integrator: dict


WERNER_KEY = "werner"  # canonical name; any key starting with it is accepted

_INTEGRATOR_DEFAULTS = {"dt": None, "t_end": None, "sample_every": 10}


def _is_number(x):
    # a finite JSON number: bool is an int subclass, so it is excluded by
    # name, and Python's JSON reader also accepts NaN and Infinity
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _reals(node, field, n=None):
    # numpy would also read booleans and numeric strings as numbers; an
    # object array keeps the entries as given (and ragged rows as lists)
    if not all(_is_number(x) for x in np.asarray(node, dtype=object).flat):
        raise ConfigError(f"{field}: expected finite real numbers")
    arr = np.asarray(node, dtype=float)
    if n is not None and arr.shape != (n,):
        raise ConfigError(f"{field}: expected {n} entries, got shape {arr.shape}")
    return arr


def _complex_vector(node, field, n):
    if not isinstance(node, (list, tuple)) or len(node) != n:
        raise ConfigError(f"{field}: expected {n} entries")
    out = np.empty(n, dtype=complex)
    for k, entry in enumerate(node):
        if _is_number(entry):
            out[k] = entry
        elif isinstance(entry, (list, tuple)) and len(entry) == 2 \
                and all(_is_number(x) for x in entry):
            out[k] = complex(entry[0], entry[1])
        else:
            raise ConfigError(f"{field}[{k}]: expected a finite number or [re, im] pair")
    return out


def _encode_complex(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def _parse_bath(node):
    if not isinstance(node, dict):
        raise ConfigError("bath: expected an object")
    unknown = set(node) - {"lambda", "A", "B"}
    if unknown:
        raise ConfigError(f"bath: unknown field(s) {sorted(unknown)}")
    has_lam, has_A = "lambda" in node, "A" in node
    if has_lam == has_A:
        raise ConfigError("bath: give exactly one of 'lambda' or 'A'")
    if "B" not in node:
        raise ConfigError("bath.B: required")
    out = {"B": _reals(node["B"], "bath.B", 3).tolist()}
    if has_lam:
        out["lambda"] = _reals(node["lambda"], "bath.lambda", 3).tolist()
    else:
        A = _reals(node["A"], "bath.A")
        if A.shape != (3, 3):
            raise ConfigError(f"bath.A: expected 3x3, got shape {A.shape}")
        out["A"] = A.tolist()
    return out


def _parse_variant(node, field, allow_mixed=True):
    if not isinstance(node, dict):
        raise ConfigError(f"{field}: expected an object")
    if len(node) != 1:
        raise ConfigError(f"{field}: give exactly one state variant, "
                          f"got {sorted(node)}")
    (key, body), = node.items()

    if key == "product":
        if not isinstance(body, dict) or set(body) - {"phi", "psi"}:
            raise ConfigError(f"{field}.product: expected fields phi, psi")
        phi = _complex_vector(body.get("phi"), f"{field}.product.phi", 2)
        psi = _complex_vector(body.get("psi"), f"{field}.product.psi", 2)
        for name, v in (("phi", phi), ("psi", psi)):
            norm = np.linalg.norm(v)
            if abs(norm - 1.0) > 1e-6:
                raise ConfigError(f"{field}.product.{name}: not normalized "
                                  f"(|{name}| = {norm:.9g})")
        return {"product": {"phi": _encode_complex(phi / np.linalg.norm(phi)),
                            "psi": _encode_complex(psi / np.linalg.norm(psi))}}

    if key.startswith(WERNER_KEY):
        if not isinstance(body, dict) or set(body) != {"s"}:
            raise ConfigError(f"{field}.{key}: expected a single field s")
        s = body["s"]
        if not _is_number(s) or not 0.0 <= s <= 0.75:
            raise ConfigError(f"{field}.{key}.s: need 0 <= s <= 3/4, got {s}")
        return {WERNER_KEY: {"s": float(s)}}

    if key == "pauli":
        if not isinstance(body, dict) or set(body) - {"r0i", "ri0", "rij"}:
            raise ConfigError(f"{field}.pauli: expected fields r0i, ri0, rij")
        r0i = _reals(body.get("r0i"), f"{field}.pauli.r0i", 3)
        ri0 = _reals(body.get("ri0"), f"{field}.pauli.ri0", 3)
        rij = _reals(body.get("rij"), f"{field}.pauli.rij")
        if rij.shape != (3, 3):
            raise ConfigError(f"{field}.pauli.rij: expected 3x3, got shape {rij.shape}")
        # the state floor of the integrator, and the closed-form tau range
        state = np.concatenate([r0i, ri0, rij.ravel()])
        try:
            check_density_matrix(convert(state))
        except ValueError as exc:
            raise ConfigError(f"{field}.pauli: not a state: {exc}") from None
        tau = tau_of(state)
        if not -3.0 - 1e-12 <= tau <= 1.0 + 1e-12:
            raise ConfigError(f"{field}.pauli.rij: correlation trace {tau!r} "
                              "outside [-3, 1]")
        return {"pauli": {"r0i": r0i.tolist(), "ri0": ri0.tolist(),
                          "rij": rij.tolist()}}

    if key == "mixed":
        if not allow_mixed:
            raise ConfigError(f"{field}.mixed: nesting mixed inside mixed "
                              "is not supported")
        if not isinstance(body, list) or not body:
            raise ConfigError(f"{field}.mixed: expected a nonempty list")
        parts, total = [], 0.0
        for k, item in enumerate(body):
            here = f"{field}.mixed[{k}]"
            if not isinstance(item, dict) or "weight" not in item:
                raise ConfigError(f"{here}.weight: required")
            w = item["weight"]
            if not _is_number(w) or w < 0:
                raise ConfigError(f"{here}.weight: need a finite nonnegative number")
            total += w
            rest = {kk: vv for kk, vv in item.items() if kk != "weight"}
            sub = _parse_variant(rest, here, allow_mixed=False)
            parts.append({"weight": float(w), **sub})
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"{field}.mixed: weights sum to {total!r}, need 1")
        return {"mixed": parts}

    raise ConfigError(f"{field}.{key}: unknown state variant")


def _parse_integrator(node):
    out = dict(_INTEGRATOR_DEFAULTS)
    if node is None:
        return out
    if not isinstance(node, dict):
        raise ConfigError("integrator: expected an object")
    unknown = set(node) - set(_INTEGRATOR_DEFAULTS)
    if unknown:
        raise ConfigError(f"integrator: unknown field(s) {sorted(unknown)}")
    for key in ("dt", "t_end"):
        if key in node:
            v = node[key]
            if not _is_number(v) or v <= 0:
                raise ConfigError(f"integrator.{key}: need a finite positive number")
            out[key] = float(v)
    if "sample_every" in node:
        v = node["sample_every"]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigError("integrator.sample_every: need an integer >= 1")
        out["sample_every"] = v
    return out


def parse_config(obj):
    """Validate a decoded JSON object into a normalized RunConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = set(obj) - {"bath", "initial", "integrator"}
    if unknown:
        raise ConfigError(f"top level: unknown field(s) {sorted(unknown)}")
    for req in ("bath", "initial"):
        if req not in obj:
            raise ConfigError(f"{req}: required")
    return RunConfig(bath=_parse_bath(obj["bath"]),
                     initial=_parse_variant(obj["initial"], "initial"),
                     integrator=_parse_integrator(obj.get("integrator")))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(obj)


def serialize(config):
    """Canonical JSON-ready dict; parse(serialize(c)) == c."""
    return {"bath": config.bath, "initial": config.initial,
            "integrator": {k: v for k, v in config.integrator.items()
                           if v is not None}}


def build_block(config):
    try:
        if "lambda" in config.bath:
            A = np.diag(config.bath["lambda"])
        else:
            A = np.asarray(config.bath["A"], dtype=float)
        return make_bath(A, np.asarray(config.bath["B"], dtype=float))
    except BathValidityError as exc:
        raise ConfigError(f"bath: {exc}") from None


def werner_state(s):
    """Singlet/triplet interpolation with weight 1-s on the singlet
    projector and s/3 on the complementary sector, as a coefficient vector;
    a valid state for 0 <= s <= 3/4, maximally entangled at s = 0."""
    if not 0.0 <= s <= 0.75:
        raise ConfigError(f"werner s: need 0 <= s <= 3/4, got {s}")
    rij = (4.0 * s / 3.0 - 1.0) * np.eye(3)
    return np.concatenate([np.zeros(6), rij.ravel()])


def product_state(phi, psi):
    """Coefficient vector of the pure product state phi x psi."""
    vec = np.kron(np.asarray(phi, dtype=complex),
                  np.asarray(psi, dtype=complex))
    return convert(np.outer(vec, vec.conj()))


def build_initial(config):
    """The configured initial state as a (15,) coefficient vector, in
    `pauli_algebra.EXPANSION` order."""
    return _variant_state(config.initial)


def _variant_state(variant):
    (key, body), = variant.items()
    if key == "product":
        return product_state([complex(a, b) for a, b in body["phi"]],
                             [complex(a, b) for a, b in body["psi"]])
    if key == WERNER_KEY:
        return werner_state(body["s"])
    if key == "pauli":
        return np.concatenate([body["r0i"], body["ri0"], np.ravel(body["rij"])],
                              dtype=float)
    if key == "mixed":
        # the weights sum to 1 within 1e-9; dividing by their sum keeps the
        # mixture a state
        acc, total = np.zeros(15), 0.0
        for item in body:
            sub = _variant_state({k: v for k, v in item.items() if k != "weight"})
            w = item["weight"]
            acc = acc + w * sub
            total += w
        return acc / total
    raise ConfigError(f"initial.{key}: unknown state variant")


def run_seed():
    """Seed for randomized suites: from the environment when set, else 0."""
    for var in ("PAIRBATH_SEED", "TOOL_SEED"):
        if var in os.environ:
            try:
                return int(os.environ[var])
            except ValueError:
                raise ConfigError(f"{var}: need an integer, "
                                  f"got {os.environ[var]!r}") from None
    return 0
