"""JSON document format for states, channels, POVMs, bases, and transition tables.

Documents carry a "schema" tag ("qcorr/1"), a "kind", and the payload.
Complex entries are encoded as [re, im] pairs; stochastic tables may use
plain reals. Convention flags are stored in-band: stochastic orientation
("column" is native, "row" is transposed on load) and the trace-one Choi
normalization. ``parse_document`` checks structure only; ``validate_manifest``
reports the numeric invariants of each kind without raising; ``realize``
builds the domain object, whose constructor raises on the first of the same
invariants that fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .channels import ChoiChannel, channel_checks
from .errors import ManifestError
from .linalg import orthonormal_check, require
from .markov import StochasticMatrix, stochastic_checks
from .measurement import MeasurementMap, povm_checks
from .states import QuantumState, state_checks

__all__ = [
    "SCHEMA",
    "KINDS",
    "CheckResult",
    "Manifest",
    "dumps_document",
    "load_manifest",
    "parse_document",
    "realize",
    "to_document",
    "validate_manifest",
]

SCHEMA = "qcorr/1"
KINDS = ("state", "channel", "povm", "stochastic", "basis")
RECORDED_KEYS = ("irreducible", "perron")  # the claims a stochastic document may record


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Manifest:
    """A parsed document: structurally sound, numerics not yet validated."""

    kind: str
    payload: dict
    label: str | None = None
    note: str | None = None


def _fail(message: str, **found) -> ManifestError:
    """``ManifestError`` whose message ends with each named value, e.g.
    ``unknown kind (expected ['state', ...], got 'foo')``."""
    if found:
        message += " (" + ", ".join(f"{k} {v!r}" for k, v in found.items()) + ")"
    return ManifestError(message)


def _entry_to_complex(entry: Any, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        return complex(entry[0], entry[1])
    raise _fail(f"{where}: entries must be numbers or [re, im] pairs", got=entry)


def _complex_matrix(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise _fail(f"{where}: expected a non-empty nested array")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise _fail(f"{where}: rows must be non-empty and equal length")
    out = np.empty((len(obj), width), dtype=np.complex128)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{where}[{i}][{j}]")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise _fail(f"{where}: entries must be finite")
    return out


def _real_matrix(obj: Any, where: str) -> np.ndarray:
    m = _complex_matrix(obj, where)
    if np.max(np.abs(m.imag)) > 0.0:
        raise _fail(f"{where}: entries must be real")
    return m.real.copy()


def _int_list(obj: Any, where: str, length: int | None = None) -> tuple[int, ...]:
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in obj)
    ):
        raise _fail(f"{where}: expected a non-empty list of positive integers")
    if length is not None and len(obj) != length:
        raise _fail(f"{where}: expected exactly {length} entries")
    return tuple(obj)


def _convention(doc: dict) -> dict:
    convention = doc.get("convention", {})
    if not isinstance(convention, dict):
        raise _fail("convention must be an object")
    return convention


def parse_document(doc: Any) -> Manifest:
    """Structural validation of a raw JSON document."""
    if not isinstance(doc, dict):
        raise _fail("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise _fail(f"unsupported schema tag", expected=SCHEMA, got=doc.get("schema"))
    kind = doc.get("kind")
    if kind not in KINDS:
        raise _fail("unknown kind", expected=list(KINDS), got=kind)
    label = doc.get("label")
    note = doc.get("note")
    for field, value in (("label", label), ("note", note)):
        if value is not None and not isinstance(value, str):
            raise _fail(f"{field} must be a string when present")

    payload: dict[str, Any] = {}
    if kind in ("state", "channel"):
        dims = _int_list(doc.get("dims"), "dims", length=2 if kind == "channel" else None)
        if kind == "channel":
            choi_convention = _convention(doc).get("choi", "trace_one")
            if choi_convention != "trace_one":
                raise _fail("unsupported Choi convention", got=choi_convention)
        data = _complex_matrix(doc.get("data"), "data")
        total = math.prod(dims)
        if data.shape != (total, total):
            raise _fail("data shape does not match dims", dims=list(dims), shape=list(data.shape))
        payload = {"dims": dims, "data": data}
    elif kind == "povm":
        raw = doc.get("data")
        if not isinstance(raw, list) or not raw:
            raise _fail("data: expected a non-empty list of matrices")
        effects = [_complex_matrix(m, f"data[{k}]") for k, m in enumerate(raw)]
        d = effects[0].shape[0]
        for k, e in enumerate(effects):
            if e.shape != (d, d):
                raise _fail(f"data[{k}]: effects must be square and equal-sized")
        pointer = None
        if doc.get("pointer_basis") is not None:
            pointer = _complex_matrix(doc["pointer_basis"], "pointer_basis")
            if pointer.shape[1] != len(effects):
                raise _fail(
                    "pointer_basis must have one column per effect",
                    effects=len(effects),
                    columns=pointer.shape[1],
                )
        payload = {"effects": effects, "pointer": pointer}
    elif kind == "stochastic":
        orientation = _convention(doc).get("orientation", "column")
        if orientation not in ("column", "row"):
            raise _fail("orientation must be 'column' or 'row'", got=orientation)
        data = _real_matrix(doc.get("data"), "data")
        if orientation == "row":
            data = data.T.copy()
        recorded = doc.get("recorded")
        if recorded is not None and not isinstance(recorded, dict):
            raise _fail("recorded must be an object when present")
        recorded = dict(recorded or {})  # perron is stored as an array, one vector a row
        unknown = [key for key in recorded if key not in RECORDED_KEYS]
        if unknown:
            raise _fail(f"recorded.{unknown[0]}: unknown key", expected=list(RECORDED_KEYS), got=unknown[0])
        if not isinstance(recorded.get("irreducible", False), bool):
            raise _fail("recorded.irreducible must be a boolean", got=recorded["irreducible"])
        if "perron" in recorded:
            perron = recorded["perron"] = _real_matrix(recorded["perron"], "recorded.perron")
            if perron.shape[1] != len(data):
                raise _fail(
                    "recorded.perron: expected one entry per state", states=len(data), got=perron.shape[1]
                )
        payload = {"data": data, "recorded": recorded}
    elif kind == "basis":
        data = _complex_matrix(doc.get("data"), "data")
        if data.shape[1] > data.shape[0]:
            raise _fail("basis cannot have more columns than rows", shape=list(data.shape))
        payload = {"data": data}
    return Manifest(kind=kind, payload=payload, label=label, note=note)


def _read_json(path: str, what: str) -> Any:
    """The JSON value in the file at ``path``; ``what`` names it in the refusal."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise _fail(f"{what} is not valid JSON: {exc}")


def load_manifest(path: str) -> Manifest:
    return parse_document(_read_json(path, "manifest"))


def validate_manifest(m: Manifest) -> list[CheckResult]:
    """Report every numeric invariant of the manifest's kind: the checks the
    constructor that ``realize`` calls enforces, in its order."""
    if m.kind == "state":
        checks = state_checks(m.payload["data"])[1]
    elif m.kind == "channel":
        checks = channel_checks(m.payload["data"], m.payload["dims"])
    elif m.kind == "povm":
        checks = povm_checks(m.payload["effects"], m.payload["pointer"])
    elif m.kind == "stochastic":
        checks = stochastic_checks(m.payload["data"])
    else:
        checks = [orthonormal_check(m.payload["data"])]
    return [CheckResult(c.name, c.passed, c.detail) for c in checks]


def realize(m: Manifest):
    """Build the domain object; raises ValueError on invariant violations."""
    if m.kind == "state":
        return QuantumState(m.payload["data"], m.payload["dims"])
    if m.kind == "channel":
        return ChoiChannel(QuantumState(m.payload["data"], m.payload["dims"]))
    if m.kind == "povm":
        effects = m.payload["effects"]
        pointer = m.payload["pointer"]
        if pointer is None:
            pointer = np.eye(len(effects), dtype=np.complex128)
        return MeasurementMap(effects, pointer)
    if m.kind == "stochastic":
        return StochasticMatrix(m.payload["data"])
    if m.kind == "basis":
        basis = m.payload["data"]
        require([orthonormal_check(basis)])
        return basis
    raise _fail("unknown kind", got=m.kind)


def _encode_complex_matrix(m: np.ndarray) -> list:
    out = []
    for row in np.asarray(m, dtype=np.complex128):
        out.append([[float(x.real), float(x.imag)] for x in row])
    return out


def _encode_real_matrix(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def to_document(obj, label: str | None = None, note: str | None = None) -> dict:
    """Serialize a domain object (or unitary basis array) to a manifest document."""
    doc: dict[str, Any] = {"schema": SCHEMA}
    if isinstance(obj, QuantumState):
        doc.update(
            kind="state",
            dims=[int(d) for d in obj.dims],
            data=_encode_complex_matrix(obj.matrix),
        )
    elif isinstance(obj, ChoiChannel):
        doc.update(
            kind="channel",
            dims=[obj.d_in, obj.d_out],
            convention={"choi": "trace_one"},
            data=_encode_complex_matrix(obj.choi.matrix),
        )
    elif isinstance(obj, MeasurementMap):
        doc.update(
            kind="povm",
            data=[_encode_complex_matrix(e) for e in obj.povm],
            pointer_basis=_encode_complex_matrix(obj.pointer_basis),
        )
    elif isinstance(obj, StochasticMatrix):
        doc.update(
            kind="stochastic",
            convention={"orientation": "column"},
            data=_encode_real_matrix(obj.matrix),
        )
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        doc.update(kind="basis", data=_encode_complex_matrix(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as a manifest")
    if label is not None:
        doc["label"] = label
    if note is not None:
        doc["note"] = note
    return doc


def dumps_document(doc: dict) -> str:
    """Deterministic serialization (sorted keys, two-space indent)."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
