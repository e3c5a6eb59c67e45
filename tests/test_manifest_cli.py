"""Document parsing, invariant checking, serialization, and the CLI surface."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr
from qcorr.channels import ChoiChannel, trace_preserving_check
from qcorr.claims import run_claims
from qcorr.cli import main
from qcorr.errors import ManifestError
from qcorr.fixtures import (
    P1,
    P1_PERRON_DERIVED,
    fixture_names,
    fixture_path,
    fourier_basis,
    load_fixture_document,
    stochastic_channel,
    trine_map,
)
from qcorr.manifest import (
    KINDS,
    SCHEMA,
    dumps_document,
    load_manifest,
    parse_document,
    realize,
    to_document,
    validate_manifest,
)
from qcorr.linalg import ORTHONORMAL_TOL, dagger, require
from qcorr.markov import COLUMN_SUM_TOL, NEGATIVE_TOL, StochasticMatrix
from qcorr.measurement import COMPLETENESS_TOL, MeasurementMap, povm_checks
from qcorr.states import HERMITIAN_TOL, PSD_TOL, TRACE_TOL, QuantumState, maximally_entangled, state_checks


def _identity_channel(d: int) -> ChoiChannel:
    return ChoiChannel(maximally_entangled(d))


def _doc(kind: str, **fields) -> dict:
    doc = {"schema": SCHEMA, "kind": kind}
    doc.update(fields)
    return doc


# each is refused by parse_document, on a two-state table
RECORDED_REFUSALS = [
    {"perron": 5},
    {"perron": [[float("nan"), 0.5]]},
    {"perron": [["a", "b"]]},
    {"perron": [0.5, 0.5]},
    {"perron": [[1.0]]},
    {"irreducible": "no"},
    # a key the format does not define is refused, not ignored
    {"perron_vector": [[0.9, 0.1]], "irreducible": False},
    {"irreducible_claim": True},
]


def _check_map(manifest) -> dict:
    return {c.name: c for c in validate_manifest(manifest)}


# -- structural parsing ----------------------------------------------------------------


def test_parse_document_rejects_envelope_problems():
    with pytest.raises(ManifestError):
        parse_document([1, 2, 3])
    with pytest.raises(ManifestError):
        parse_document({"schema": "qcorr/0", "kind": "state"})
    with pytest.raises(ManifestError):
        parse_document(_doc("wavefunction", data=[[1.0]]))
    with pytest.raises(ManifestError):
        parse_document(_doc("basis", data=[[1.0]], label=7))


def test_parse_state_document():
    m = parse_document(_doc("state", dims=[2], data=[[1.0, 0.0], [0.0, 0.0]]))
    assert m.kind == "state" and m.payload["dims"] == (2,)
    with pytest.raises(ManifestError):
        parse_document(_doc("state", dims=[2, 2], data=[[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ManifestError):
        parse_document(_doc("state", dims=[2, 0], data=[[1.0]]))
    with pytest.raises(ManifestError):
        parse_document(_doc("state", dims=[1], data=[[True]]))
    with pytest.raises(ManifestError):
        parse_document(_doc("state", dims=[1], data=[[[1.0, 0.0, 0.0]]]))
    # 7 * 0x6DB6DB6DB6DB6DB7 is 1 modulo 2**64: the product must not wrap
    with pytest.raises(ManifestError, match="data shape does not match dims"):
        parse_document(_doc("state", dims=[7, 0x6DB6DB6DB6DB6DB7], data=[[1.0]]))


def test_parse_complex_entries():
    m = parse_document(_doc("basis", data=[[[0.0, 1.0]], [[1.0, 0.0]]]))
    assert np.array_equal(m.payload["data"], np.array([[1j], [1.0]]))


def test_parse_channel_document():
    doc = to_document(_identity_channel(2))
    assert doc["kind"] == "channel" and doc["convention"] == {"choi": "trace_one"}
    parsed = parse_document(doc)
    assert parsed.payload["dims"] == (2, 2)
    bad = dict(doc)
    bad["convention"] = {"choi": "unnormalized"}
    with pytest.raises(ManifestError):
        parse_document(bad)
    with pytest.raises(ManifestError):
        parse_document(_doc("channel", dims=[2], data=doc["data"]))


def test_parse_povm_document():
    doc = to_document(trine_map())
    parsed = parse_document(doc)
    assert len(parsed.payload["effects"]) == 3
    with pytest.raises(ManifestError):
        parse_document(_doc("povm", data=[]))
    with pytest.raises(ManifestError):
        parse_document(_doc("povm", data=[[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]))
    narrow = dict(doc)
    narrow["pointer_basis"] = [[1.0], [0.0], [0.0]]
    with pytest.raises(ManifestError):
        parse_document(narrow)


def test_parse_stochastic_row_orientation():
    doc = _doc(
        "stochastic",
        convention={"orientation": "row"},
        data=[[0.2, 0.8], [0.6, 0.4]],  # rows sum to one before the transpose
    )
    m = parse_document(doc)
    assert np.allclose(m.payload["data"], np.array([[0.2, 0.6], [0.8, 0.4]]))
    assert all(c.passed for c in validate_manifest(m))
    with pytest.raises(ManifestError):
        parse_document(_doc("stochastic", convention={"orientation": "diagonal"}, data=[[1.0]]))
    with pytest.raises(ManifestError):
        parse_document(_doc("stochastic", data=[[1.0]], recorded=["irreducible"]))
    with pytest.raises(ManifestError):
        parse_document(_doc("stochastic", data=[[[1.0, 0.5]]]))
    # the recorded block is checked where the document enters: one perron entry
    # per state, that is per row after the transpose
    recorded = {"irreducible": True, "perron": [[0.5, 0.5]]}
    m = parse_document(dict(doc, data=[[0.2, 0.8]], recorded=recorded))
    assert m.payload["recorded"]["irreducible"] is True
    assert np.array_equal(m.payload["recorded"]["perron"], np.array([[0.5, 0.5]]))
    for bad in RECORDED_REFUSALS:
        with pytest.raises(ManifestError, match=r"recorded\.(perron|irreducible)"):
            parse_document(_doc("stochastic", data=[[0.5, 0.5], [0.5, 0.5]], recorded=bad))


def test_parse_basis_document():
    tall = fourier_basis(3)[:, :2]
    m = parse_document(to_document(tall))
    assert m.payload["data"].shape == (3, 2)
    with pytest.raises(ManifestError):
        parse_document(_doc("basis", data=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(str(tmp_path / "nope.json"))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(str(bad))


# -- invariant checks ------------------------------------------------------------------


def test_validate_bundled_stochastic_fixtures():
    good = _check_map(load_manifest(fixture_path("p1.json")))
    assert good["nonnegative"].passed and good["column-stochastic"].passed
    bad = _check_map(load_manifest(fixture_path("p2_printed.json")))
    assert bad["nonnegative"].passed
    assert not bad["column-stochastic"].passed
    assert bad["column-stochastic"].detail == "column 3 sums to 1.125"


def test_validate_state_checks():
    good = _check_map(parse_document(to_document(maximally_entangled(2))))
    assert all(c.passed for c in good.values())
    off = parse_document(_doc("state", dims=[2], data=[[0.6, 0.0], [0.0, 0.6]]))
    checks = _check_map(off)
    assert not checks["unit-trace"].passed
    assert checks["hermitian"].passed and checks["positive-semidefinite"].passed
    with pytest.raises(ValueError):
        realize(off)


def test_validate_channel_checks():
    good = _check_map(load_manifest(fixture_path("vn_d2_channel.json")))
    assert all(c.passed for c in good.values())
    leaky = parse_document(
        _doc(
            "channel",
            dims=[2, 2],
            data=[
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
        )
    )
    checks = _check_map(leaky)
    assert checks["unit-trace"].passed and checks["positive-semidefinite"].passed
    assert not checks["trace-preserving"].passed
    with pytest.raises(ValueError):
        realize(leaky)


def test_validate_povm_checks():
    good = _check_map(parse_document(to_document(trine_map())))
    assert all(c.passed for c in good.values())
    incomplete = parse_document(_doc("povm", data=[[[0.5, 0.0], [0.0, 0.5]]]))
    assert not _check_map(incomplete)["completeness"].passed


def _refusal(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 8),
    rank=st.integers(1, 8),
    low=st.floats(-1.0, 1.0),
    negative=st.booleans(),
    skew=st.sampled_from([0.0, 0.0, 0.2, 0.8, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_constructors_decide_positivity_as_the_eigenvalue_rule(d, rank, low, negative, skew, seed):
    # a Cholesky factor settles positivity in the constructors; wherever it
    # cannot, the exact spectrum check decides, so every verdict and message
    # equals the one the reported checks give
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    lam = (-1.0 if negative else 1.0) * 10.0**low * PSD_TOL  # +-{0.1 ... 10} PSD_TOL
    k = min(rank, d - 1)  # below d - 1 the state is rank-deficient besides lam
    w = np.zeros(d)
    w[:k] = rng.dirichlet(np.ones(k)) * (1.0 - lam)
    w[-1] = lam
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = (g - dagger(g)) / np.linalg.norm(g - dagger(g))
    g *= skew * HERMITIAN_TOL / 2.0  # a deviation of skew times the hermitian bound
    m = (v * w) @ dagger(v) + g
    want = _refusal(lambda: require(state_checks(m)[1]))
    assert _refusal(lambda: QuantumState(m, (d,))) == want
    # rank-one effects of a basis, the first moved by lam along the second
    # vector and the second by -lam, so their sum stays the identity
    effects = [np.outer(v[:, j], np.conj(v[:, j])) for j in range(d)]
    shift = lam * effects[1] + g
    effects[0], effects[1] = effects[0] + shift, effects[1] - shift
    want = _refusal(lambda: require(povm_checks(effects, v)))
    assert _refusal(lambda: MeasurementMap(tuple(effects), v)) == want


def test_validate_basis_checks():
    good = _check_map(parse_document(to_document(fourier_basis(3))))
    assert good["orthonormal-columns"].passed
    skew = parse_document(_doc("basis", data=[[1.0, 0.0], [0.0, 2.0]]))
    assert not _check_map(skew)["orthonormal-columns"].passed
    with pytest.raises(ValueError):
        realize(skew)


# -- realize round trips ---------------------------------------------------------------


def test_round_trip_every_kind():
    originals = [
        maximally_entangled(2),
        stochastic_channel(P1),
        trine_map(),
        StochasticMatrix(P1),
        fourier_basis(3),
    ]
    for obj in originals:
        rebuilt = realize(parse_document(to_document(obj)))
        assert type(rebuilt) is type(obj)
        if isinstance(obj, QuantumState):
            assert obj.dims == rebuilt.dims
            assert np.allclose(obj.matrix, rebuilt.matrix, atol=1e-15)
        elif isinstance(obj, ChoiChannel):
            assert np.allclose(obj.choi.matrix, rebuilt.choi.matrix, atol=1e-15)
        elif isinstance(obj, MeasurementMap):
            assert all(np.allclose(a, b, atol=1e-15) for a, b in zip(obj.povm, rebuilt.povm))
            assert np.allclose(obj.pointer_basis, rebuilt.pointer_basis, atol=1e-15)
        elif isinstance(obj, StochasticMatrix):
            assert np.allclose(obj.matrix, rebuilt.matrix, atol=1e-15)
        else:
            assert np.allclose(obj, rebuilt, atol=1e-15)


def test_realize_rejects_invalid_numerics():
    printed = load_manifest(fixture_path("p2_printed.json"))
    with pytest.raises(ValueError):
        realize(printed)


def test_to_document_rejects_unknown_objects():
    with pytest.raises(TypeError):
        to_document({"not": "a domain object"})


def test_dumps_document_is_deterministic():
    doc = to_document(StochasticMatrix(P1), label="x")
    text = dumps_document(doc)
    assert text == dumps_document(json.loads(text))
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "stochastic"
    with pytest.raises(ValueError):
        dumps_document({"x": float("nan")})


def test_fixture_corpus_is_complete():
    names = fixture_names()
    assert len(names) == 13
    assert names == sorted(names)
    for name in names:
        doc = load_fixture_document(name)
        assert doc["schema"] == SCHEMA and doc["kind"] in KINDS


# -- command line ----------------------------------------------------------------------


def _run(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def _write_doc(tmp_path, name: str, obj, **kwargs) -> str:
    path = tmp_path / name
    path.write_text(dumps_document(to_document(obj, **kwargs)), encoding="utf-8")
    return str(path)


def test_cli_validate_exit_codes(capsys):
    code, report = _run(capsys, "validate", "fixture:p1.json")
    assert code == 0 and report["passed"]
    assert report["command"] == "validate"
    assert report["findings"]["kind"] == "stochastic"
    assert report["inputs"][0]["path"] == "fixture:p1.json"
    assert len(report["inputs"][0]["sha256"]) == 64

    code, report = _run(capsys, "validate", "fixture:p2_printed.json")
    assert code == 1 and not report["passed"]
    failed = {c["name"]: c for c in report["checks"]}["column-stochastic"]
    assert not failed["passed"] and failed["detail"] == "column 3 sums to 1.125"


def test_cli_validate_every_bundled_fixture(capsys):
    for name in fixture_names():
        code, report = _run(capsys, "validate", f"fixture:{name}")
        if name == "p2_printed.json":
            assert code == 1
        else:
            assert code == 0, f"{name} failed validation"
            assert report["passed"]


def test_cli_input_errors(capsys, tmp_path):
    assert _run(capsys, "validate", str(tmp_path / "absent.json"))[0] == 2
    assert _run(capsys, "validate", "fixture:absent.json")[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    assert _run(capsys, "validate", str(broken))[0] == 2


def test_cli_invalid_input_names_the_expected_and_found_values(capsys, tmp_path):
    path = tmp_path / "foo.json"
    path.write_text(json.dumps({"schema": SCHEMA, "kind": "foo"}), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown kind" in captured.err and "'foo'" in captured.err and "'state'" in captured.err


def test_cli_classify_channels(capsys):
    code, report = _run(capsys, "classify", "fixture:vn_d2_channel.json")
    assert code == 0
    f = report["findings"]
    assert f["channel_type"] == "CC-type"
    assert f["transition"]["kind"] == "stochastic"
    assert np.allclose(np.array(f["joint_probs"]).sum(), 1.0)

    code, report = _run(capsys, "classify", "fixture:trine_channel.json")
    assert code == 0
    f = report["findings"]
    assert f["channel_type"] == "QC-type"
    assert "transition" not in f and f["measurement"]["kind"] == "povm"


def test_cli_classify_decides_cc_type_by_one_certificate_under_tol(capsys, tmp_path):
    # A and B commute only up to a 1e-6 coupling: the joint diagonalization
    # certifies a basis under --tol 1e-3 (witness of order 1e-7), and that
    # certificate alone decides CC-type; under the default tol it refuses
    a = np.diag([0.5, 0.2]) + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.diag([0.2, 0.5])
    mm = MeasurementMap([a, b, np.eye(2) - a - b], np.eye(3))
    path = _write_doc(tmp_path, "near_cc.json", ChoiChannel.from_measurement_map(mm))
    code, report = _run(capsys, "classify", path, "--tol", "1e-3")
    assert code == 0 and report["findings"]["channel_type"] == "CC-type"
    code, report = _run(capsys, "classify", path)
    assert code == 0 and report["findings"]["channel_type"] == "QC-type"


def test_cli_classify_states(capsys):
    code, report = _run(capsys, "classify", "fixture:cq_witness_state.json")
    assert code == 0
    f = report["findings"]
    assert f["label"] == "QC-only"
    assert f["sides"]["B"]["classical"] and not f["sides"]["A"]["classical"]
    assert f["sides"]["B"]["probabilities"] == pytest.approx([0.5, 0.5])

    code, report = _run(capsys, "classify", "fixture:cq_witness_state.json", "--side", "B")
    assert code == 0
    assert list(report["findings"]["sides"]) == ["B"]
    assert "label" not in report["findings"]

    code, report = _run(capsys, "classify", "fixture:nonclosure_input.json")
    assert code == 0 and report["findings"]["label"] == "neither"

    assert _run(capsys, "classify", "fixture:p1.json")[0] == 2


def test_cli_markov_stochastic(capsys):
    code, report = _run(capsys, "markov", "fixture:p1.json")
    assert code == 0
    f = report["findings"]
    assert f["square"] and f["irreducible"] and f["primitive"]
    assert f["degeneracy"] == 1
    assert f["perron_vectors"][0] == pytest.approx(list(P1_PERRON_DERIVED))
    flags = {(x["property"], json.dumps(x["recorded"])): x["agrees"] for x in f["recorded_flags"]}
    assert flags[("irreducible", "true")] is True
    perron_flags = [x for x in f["recorded_flags"] if x["property"] == "perron"]
    assert len(perron_flags) == 1 and perron_flags[0]["agrees"] is False

    code, report = _run(capsys, "markov", "fixture:p2_repaired.json")
    assert code == 0
    perron_flags = [x for x in report["findings"]["recorded_flags"] if x["property"] == "perron"]
    assert perron_flags[0]["agrees"] is True


@pytest.mark.parametrize("command", ["validate", "markov"])
@pytest.mark.parametrize("recorded", RECORDED_REFUSALS, ids=lambda r: json.dumps(r))
def test_cli_refuses_a_malformed_recorded_block(capsys, tmp_path, command, recorded):
    path = tmp_path / "table.json"
    doc = _doc("stochastic", data=[[0.5, 0.5], [0.5, 0.5]], recorded=recorded)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"recorded.{next(iter(recorded))}" in captured.err


def test_cli_markov_power_and_limit(capsys):
    code, report = _run(capsys, "markov", "fixture:p1.json", "--power", "3", "--limit")
    assert code == 0
    f = report["findings"]
    assert np.allclose(np.array(f["power"]), np.linalg.matrix_power(P1, 3), atol=1e-12)
    lim = np.array(f["limit"]["matrix"])
    assert np.allclose(lim, np.outer(P1_PERRON_DERIVED, np.ones(3)), atol=1e-9)
    assert f["limit"]["r_converged"] >= 1

    assert _run(capsys, "markov", "fixture:block_p1p2.json", "--limit")[0] == 1
    assert _run(capsys, "markov", "fixture:p2_printed.json")[0] == 2


def test_cli_markov_channel_routes(capsys, tmp_path):
    code, report = _run(capsys, "markov", "fixture:vn_d2_channel.json")
    assert code == 0
    f = report["findings"]
    assert f["square"] and not f["irreducible"]
    assert f["degeneracy"] == 2 and len(f["blocks"]) == 2

    basis_doc = _write_doc(tmp_path, "fourier2.json", fourier_basis(2))
    code, report = _run(capsys, "markov", "fixture:vn_d2_channel.json", "--basis", basis_doc)
    assert code == 0
    assert len(report["inputs"]) == 2
    assert np.allclose(np.array(report["findings"]["transition"]["data"]), 0.5)

    assert _run(capsys, "markov", "fixture:p1.json", "--basis", basis_doc)[0] == 2

    code, report = _run(capsys, "markov", "fixture:trine_channel.json")
    assert code == 0 and not report["findings"]["square"]
    assert report["findings"]["shape"] == [3, 2]
    assert _run(capsys, "markov", "fixture:trine_channel.json", "--limit")[0] == 2

    identity_doc = _write_doc(tmp_path, "id2.json", _identity_channel(2))
    assert _run(capsys, "markov", identity_doc)[0] == 1


def _near_orthonormal_basis(shape: str, dev: float) -> np.ndarray:
    """2x2 basis with Gram deviation ``dev``: one column stretched, or the
    second column tilted toward the first (unit columns)."""
    if shape == "stretched":
        return np.diag([1.0, np.sqrt(1.0 + dev)])
    tilt = dev / np.sqrt(2.0)  # Gram has two off-diagonal entries of this size
    return np.array([[1.0, tilt], [0.0, np.sqrt(1.0 - tilt**2)]])


@pytest.mark.parametrize("shape", ["stretched", "tilted"])
def test_cli_basis_tolerance_shared_by_validate_and_analysis(capsys, tmp_path, shape):
    # validate, markov and broadcast accept and refuse the same bases
    for dev, validate_code, analysis_code in ((5e-10, 0, 0), (2e-9, 1, 2)):
        basis = _near_orthonormal_basis(shape, dev)
        basis_doc = _write_doc(tmp_path, f"{shape}-{dev:g}.json", basis)
        code, report = _run(capsys, "validate", basis_doc)
        assert code == validate_code
        assert report["checks"][0]["detail"] == f"gram deviation {dev:.3e}"
        for sub in ("markov", "broadcast"):
            code, _ = _run(capsys, sub, "fixture:vn_d2_channel.json", "--basis", basis_doc)
            assert code == analysis_code, (sub, dev)


def _complex_rows(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _off_by(check: str, dev: float) -> tuple[dict, tuple[str, ...]]:
    """A document whose ``check`` measures about ``dev`` (every other check
    near zero), and the analysis commands that take it."""
    def diag(*v):
        return _complex_rows(np.diag(v))

    if check == "pointer-orthonormal":
        doc = _doc("povm", data=[diag(1, 0), diag(0, 1)], pointer_basis=diag(1, np.sqrt(1 + dev)))
        return doc, ("markov",)
    if check == "completeness":
        return _doc("povm", data=[diag(1, 0), diag(0, 1 + dev)]), ("markov",)
    # the von Neumann channel with its input marginal tilted by dev
    tilt = dev / np.sqrt(2.0)
    doc = _doc("channel", dims=[2, 2], data=diag(0.5 + tilt, 0, 0, 0.5 - tilt))
    return doc, ("classify", "markov", "broadcast")


@pytest.mark.parametrize("check", ["pointer-orthonormal", "completeness", "trace-preserving"])
def test_cli_document_tolerance_shared_by_validate_and_analysis(capsys, tmp_path, check):
    # validate and every analysis that takes the document accept and refuse it together
    for dev, validate_code, analysis_code in ((5e-10, 0, 0), (2e-9, 1, 2)):
        doc, analyses = _off_by(check, dev)
        path = tmp_path / f"{check}-{dev:g}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report = _run(capsys, "validate", str(path))
        assert code == validate_code
        assert {c["name"]: c["passed"] for c in report["checks"]}[check] == (validate_code == 0)
        for sub in analyses:
            assert _run(capsys, sub, str(path))[0] == analysis_code, (sub, dev)


# -- one tolerance policy: validate, realize and the analyses agree near every bound ----


def _nudge_matrix(m: np.ndarray, dims, check: str, value: float) -> np.ndarray:
    """Density or Choi matrix moved so that ``check`` measures ``value``."""
    h = np.zeros_like(m)
    h[0, 1] = h[1, 0] = 1 / np.sqrt(2.0)  # Hermitian, traceless, unit norm
    if check == "hermitian":
        return m + 1j * value / 2 * h
    if check == "unit-trace":
        return m * (1 + value)
    if check == "positive-semidefinite":
        w, v = np.linalg.eigh(m)
        shift = w[0] + value  # lowest eigenvalue becomes -value, trace kept
        return m - shift * np.outer(v[:, 0], v[:, 0].conj()) + shift * np.outer(v[:, -1], v[:, -1].conj())
    # trace-preserving: tilt the input marginal by a congruence, keeping trace and positivity
    d_in, d_out = dims
    a = value * d_in / np.sqrt(2.0)
    tilt = np.kron(np.diag([np.sqrt(1 + a), np.sqrt(1 - a)] + [1.0] * (d_in - 2)), np.eye(d_out))
    return tilt @ m @ tilt


def _nudge_povm(effects: list, pointer, check: str, value: float):
    effects = [e.copy() for e in effects]
    d = effects[0].shape[0]
    if check == "effects-hermitian":
        h = np.zeros((d, d), dtype=complex)
        h[0, 1] = h[1, 0] = 1 / np.sqrt(2.0)
        scale = min(max(1.0, np.linalg.norm(e)) for e in effects[:2])
        effects[0] = effects[0] + 1j * value * scale / 2 * h
        effects[1] = effects[1] - 1j * value * scale / 2 * h
    elif check == "effects-positive":
        w, v = np.linalg.eigh(effects[0])
        move = (w[0] + value) * np.outer(v[:, 0], v[:, 0].conj())
        effects[0] = effects[0] - move
        effects[1] = effects[1] + move
    elif check == "completeness":
        w, v = np.linalg.eigh(effects[0])
        effects[0] = effects[0] + value * np.outer(v[:, -1], v[:, -1].conj())
    else:
        pointer = pointer.copy()
        pointer[:, 0] *= np.sqrt(1 + value)
    return effects, pointer


def _nudged_document(doc: dict, check: str, factor: float) -> dict:
    """``doc`` with ``check`` moved to ``factor`` times its bound."""
    m = parse_document(doc)
    p = m.payload
    if m.kind in ("state", "channel"):
        bounds = {"hermitian": HERMITIAN_TOL, "unit-trace": TRACE_TOL, "positive-semidefinite": PSD_TOL}
        if m.kind == "channel":
            bounds["trace-preserving"] = trace_preserving_check(np.eye(p["dims"][0])).bound
        data = _nudge_matrix(p["data"], p["dims"], check, factor * bounds[check])
        return _doc(m.kind, dims=list(p["dims"]), data=_complex_rows(data))
    if m.kind == "povm":
        d = p["effects"][0].shape[0]
        bounds = {
            "effects-hermitian": HERMITIAN_TOL,
            "effects-positive": PSD_TOL,
            "completeness": COMPLETENESS_TOL * np.sqrt(d),
            "pointer-orthonormal": ORTHONORMAL_TOL,
        }
        effects, pointer = _nudge_povm(p["effects"], p["pointer"], check, factor * bounds[check])
        out = _doc("povm", data=[_complex_rows(e) for e in effects])
        if pointer is not None:
            out["pointer_basis"] = _complex_rows(pointer)
        return out
    if m.kind == "stochastic":
        data = p["data"].copy()
        column = data[:, 0]
        low, high = int(np.argmin(column)), int(np.argmax(column))
        if check == "nonnegative":
            shift = column[low] + factor * NEGATIVE_TOL  # lowest entry becomes -value, sum kept
            column[low] -= shift
            column[high] += shift
        else:
            column[high] += factor * COLUMN_SUM_TOL
        return _doc("stochastic", data=data.tolist())
    data = p["data"].copy()
    data[:, 0] *= np.sqrt(1 + factor * ORTHONORMAL_TOL)
    return _doc("basis", data=_complex_rows(data))


_PROPERTY_DOCUMENTS = [load_fixture_document(name) for name in fixture_names()] + [
    to_document(trine_map()),
    to_document(MeasurementMap.from_stochastic(P1, fourier_basis(3))),
    _doc("povm", data=to_document(trine_map())["data"]),
    to_document(fourier_basis(2)),
]


def _property_cases():
    cases = []
    for doc in _PROPERTY_DOCUMENTS:
        m = parse_document(doc)
        checks = [c.name for c in validate_manifest(m)]
        cases += [(doc, check) for check in checks]
    return cases


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    st.sampled_from(_property_cases()),
    st.one_of(st.floats(0.2, 0.9), st.floats(1.2, 4.0)),
)
def test_validate_realize_and_analysis_agree_near_every_bound(tmp_path_factory, case, factor):
    doc, check = case
    nudged = _nudged_document(doc, check, factor)
    manifest = parse_document(nudged)
    valid = all(c.passed for c in validate_manifest(manifest))
    try:
        realize(manifest)
        realized = True
    except ValueError:
        realized = False
    assert valid == realized
    path = tmp_path_factory.mktemp("nudged") / "doc.json"
    path.write_text(json.dumps(nudged), encoding="utf-8")
    commands = {
        "state": [["classify", str(path)]],
        "channel": [["classify", str(path)], ["markov", str(path)]],
        "povm": [["markov", str(path)]],
        "stochastic": [["markov", str(path)]],
        "basis": [["markov", "fixture:vn_d2_channel.json", "--basis", str(path)]],
    }[manifest.kind]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code == 2) == (not valid), (argv[0], check, factor, err.getvalue())


def test_cli_psd_slack_refused_by_analysis(capsys, tmp_path):
    eps = 0.6 * PSD_TOL  # inside the bound; the output-1 block has p = 1/2 - eps
    path = tmp_path / "psd.json"
    doc = _doc("channel", dims=[2, 2], data=_complex_rows(np.diag([0.5 + eps, -eps, 0.0, 0.5])))
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(capsys, "validate", str(path))[0] == 0
    for sub in ("classify", "markov", "broadcast"):
        assert _run(capsys, sub, str(path))[0] == 0, sub


def test_cli_import_does_not_load_scipy():
    # scipy is only a test dependency; importing it made up a quarter of CLI start-up.
    # numpy loads numpy.random lazily, and only a joint diagonalization needs it
    probe = (
        "import sys, qcorr, qcorr.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.random'))"
    )
    src = Path(qcorr.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_cli_broadcast_single_channel(capsys, tmp_path):
    code, report = _run(capsys, "broadcast", "fixture:vn_d2_channel.json", "--copies", "3")
    assert code == 0
    assert report["findings"]["degeneracy"] == 2
    names = [c["name"] for c in report["checks"]]
    assert names == ["full-broadcast-0", "full-broadcast-1"]
    assert all(c["passed"] for c in report["checks"])

    assert _run(capsys, "broadcast", "fixture:vn_d2_channel.json", "--copies", "9")[0] == 3
    # the cap is decided without forming d_out ** copies
    for copies in ("15000", "1000000000000"):
        start = time.perf_counter()
        assert _run(capsys, "broadcast", "fixture:vn_d2_channel.json", "--copies", copies)[0] == 3
        assert time.perf_counter() - start < 1.0, copies
    # a channel of dimension one: d_out ** copies stays 1, the copy count meets the cap
    d1 = tmp_path / "d1.json"
    d1.write_text(json.dumps(_doc("channel", dims=[1, 1], data=[[1.0]])), encoding="utf-8")
    assert _run(capsys, "validate", str(d1))[0] == 0
    assert _run(capsys, "broadcast", str(d1), "--copies", "256")[0] == 0
    assert _run(capsys, "broadcast", str(d1), "--copies", "257")[0] == 3
    assert _run(capsys, "broadcast", "fixture:p_plus_d2.json")[0] == 2


def test_cli_broadcast_rotated_basis(capsys, tmp_path):
    channel_doc = _write_doc(tmp_path, "p1_channel.json", stochastic_channel(P1))
    basis_doc = _write_doc(tmp_path, "fourier3.json", fourier_basis(3))
    code, report = _run(
        capsys, "broadcast", channel_doc, "--basis", basis_doc, "--mode", "spectrum"
    )
    assert code == 0 and report["passed"]
    code, report = _run(capsys, "broadcast", channel_doc, "--basis", basis_doc, "--mode", "full")
    assert code == 1
    assert not report["checks"][0]["passed"]

    identity_doc = _write_doc(tmp_path, "id2.json", _identity_channel(2))
    assert _run(capsys, "broadcast", identity_doc)[0] == 1


def test_cli_broadcast_two_channels(capsys, tmp_path):
    from qcorr.fixtures import PA_REPAIRED, PB_REPAIRED

    doc_a = _write_doc(tmp_path, "pa.json", stochastic_channel(PA_REPAIRED))
    doc_b = _write_doc(tmp_path, "pb.json", stochastic_channel(PB_REPAIRED))
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[[0.3, 0.2], [0.1, 0.4]]", encoding="utf-8")
    code, report = _run(
        capsys,
        "broadcast",
        doc_a,
        "--second-channel",
        doc_b,
        "--pi",
        str(pi_path),
    )
    assert code == 0 and report["passed"]
    assert report["findings"]["degeneracy"] == [2, 2]
    names = {c["name"] for c in report["checks"]}
    assert names == {"local-broadcast", "two-channel-cc"}
    assert report["findings"]["corollary"]["all_cc"]

    pi_path.write_text("[0.5, 0.5]", encoding="utf-8")
    assert _run(capsys, "broadcast", doc_a, "--second-channel", doc_b, "--pi", str(pi_path))[0] == 2


def test_cli_broadcast_refuses_boolean_pi_weights(capsys, tmp_path):
    # the pi table is a document matrix: booleans are not numbers
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[[true, false], [false, false]]", encoding="utf-8")
    code = main(["broadcast", "fixture:vn_d2_channel.json", "--pi", str(pi_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "invalid input: pi[0][0]: entries must be numbers or [re, im] pairs (got True)\n"


def test_cli_broadcast_single_channel_pi(capsys, tmp_path):
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[[0.3, 0.2], [0.1, 0.4]]", encoding="utf-8")
    code, report = _run(capsys, "broadcast", "fixture:vn_d2_channel.json", "--pi", str(pi_path))
    assert code == 0 and report["passed"]
    f = report["findings"]
    assert f["pi"] == [[0.3, 0.2], [0.1, 0.4]]
    assert f["family"]["kind"] == "state" and f["family"]["dims"] == [2, 2]
    assert "local_broadcast" in f and "joint_distribution" not in f["local_broadcast"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["full-broadcast-0", "full-broadcast-1", "local-broadcast"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("markov", "fixture:p1.json", "--power", "0"), "power must be a positive integer"),
        (("markov", "fixture:p2_repaired.json", "--power", "-1"), "power must be a positive integer"),
        (
            ("broadcast", "fixture:vn_d2_channel.json", "--second-channel",
             "fixture:vn_d2_channel.json", "--basis", "BASIS"),
            "--basis cannot be combined with --second-channel",
        ),
        (("classify", "fixture:trine_channel.json", "--side", "A"), "--side applies only to state"),
        (
            ("broadcast", "fixture:vn_d2_channel.json", "--seed", "5"),
            "--seed applies only with --second-channel",
        ),
        (("classify", "fixture:cq_witness_state.json", "--tol", "nan"), "--tol must be finite and >= 0"),
        (("classify", "fixture:cq_witness_state.json", "--tol", "inf"), "--tol must be finite and >= 0"),
        (("classify", "fixture:cq_witness_state.json", "--tol=-1"), "--tol must be finite and >= 0"),
        (("broadcast", "fixture:vn_d2_channel.json", "--tol", "nan"), "--tol must be finite and >= 0"),
        (("broadcast", "fixture:vn_d2_channel.json", "--tol", "inf"), "--tol must be finite and >= 0"),
        (("broadcast", "fixture:vn_d2_channel.json", "--tol=-1"), "--tol must be finite and >= 0"),
    ],
    ids=[
        "power-zero",
        "power-negative",
        "basis-with-second-channel",
        "side-on-channel",
        "seed-without-second-channel",
        "classify-tol-nan",
        "classify-tol-inf",
        "classify-tol-negative",
        "broadcast-tol-nan",
        "broadcast-tol-inf",
        "broadcast-tol-negative",
    ],
)
def test_cli_refuses_options_a_path_would_ignore(capsys, tmp_path, argv, message):
    basis_doc = _write_doc(tmp_path, "id2.json", np.eye(2))
    code = main([basis_doc if a == "BASIS" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def _patch_everywhere(monkeypatch, module, name: str, make_wrapper) -> None:
    """Rebind ``module.name`` in every qcorr module that imported it, or on
    ``module`` itself when it is a class."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    if isinstance(module, type):
        monkeypatch.setattr(module, name, staticmethod(wrapper))
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qcorr") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Results of every call to ``module.name`` from here on."""
    results: list = []

    def make(original):
        def counted(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        return counted

    _patch_everywhere(monkeypatch, module, name, make)
    return results


@pytest.mark.parametrize(
    "argv, module, name, calls",
    [
        (("classify", "fixture:cq_witness_state.json"), "structure", "classical_side_basis", 2),
        # side B is accepted on its basis certificate; only the refused side A measures commutators
        (("classify", "fixture:cq_witness_state.json"), "linalg", "_orbit_max", 1),
        # the channel's two verdicts are certified without the all-pairs commutator pass
        (("classify", "fixture:vn_d2_channel.json"), "linalg", "simultaneous_diagonalize", 2),
        (("classify", "fixture:vn_d2_channel.json"), "linalg", "_orbit_max", 0),
        (("markov", "fixture:p1.json"), "markov", "_class_labels", 1),
        (("markov", "fixture:p1.json", "--limit"), "markov", "_class_labels", 1),
        (("markov", "fixture:p1.json", "--limit"), "markov", "_stationary", 1),
        (
            ("broadcast", "fixture:vn_d2_channel.json", "--second-channel",
             "fixture:vn_d2_channel.json"),
            "structure",
            "qc_type_extract",
            2,
        ),
        # channels are applied by contraction with the Choi tensor, never through Kraus operators
        (
            ("broadcast", "fixture:vn_d2_channel.json", "--second-channel",
             "fixture:vn_d2_channel.json"),
            "channels.ChoiChannel",
            "from_kraus",
            0,
        ),
        # derived states and maps are not re-checked: only the realized Choi state
        # is, and its positivity is decided once
        (("classify", "fixture:vn_d2_channel.json"), "states", "_cholesky_positive", 1),
        (("classify", "fixture:vn_d2_channel.json"), "measurement", "povm_checks", 0),
        (("broadcast", "fixture:vn_d2_channel.json"), "states", "_cholesky_positive", 1),
    ],
    ids=[
        "classify-state",
        "classify-state-commutators",
        "classify-channel",
        "classify-channel-commutators",
        "markov-table",
        "markov-limit-classes",
        "markov-limit-stationary",
        "broadcast-two-channels",
        "broadcast-two-channels-kraus",
        "classify-channel-state-checks",
        "classify-channel-povm-checks",
        "broadcast-state-checks",
    ],
)
def test_cli_runs_each_analysis_once(capsys, monkeypatch, argv, module, name, calls):
    results = _count_calls(monkeypatch, operator.attrgetter(module)(qcorr), name)
    assert _run(capsys, *argv)[0] == 0
    assert len(results) == calls


@pytest.mark.parametrize("path", ["fixture:cq_witness_state.json", "fixture:vn_d2_channel.json"])
def test_joint_diagonalization_certifies_its_basis_once(capsys, monkeypatch, path):
    offdiagonal = _count_calls(monkeypatch, qcorr.linalg, "_max_offdiagonal")
    per_call: list[tuple[bool, int]] = []

    def make(original):
        def counted(*args, **kwargs):
            before = len(offdiagonal)
            result = original(*args, **kwargs)
            per_call.append((result.basis is not None, len(offdiagonal) - before))
            return result

        return counted

    _patch_everywhere(monkeypatch, qcorr.linalg, "simultaneous_diagonalize", make)
    assert _run(capsys, "classify", path)[0] == 0
    certified = [n for found, n in per_call if found]
    assert certified and certified == [1] * len(certified)


def test_classify_builds_the_ensemble_once_per_accepted_side(capsys, monkeypatch):
    built = _count_calls(monkeypatch, qcorr.structure, "_ensemble")
    code, report = _run(capsys, "classify", "fixture:cq_witness_state.json")
    accepted = [side for side, record in report["findings"]["sides"].items() if record["classical"]]
    assert code == 0 and accepted == ["B"]
    assert len(built) == len(accepted)


def test_cli_paper_check(capsys):
    code, report = _run(capsys, "paper-check")
    assert code == 0 and report["passed"]
    assert len(report["checks"]) == 10
    verdicts = {c["id"]: c["verdict"] for c in report["findings"]["claims"]}
    assert verdicts["p1-perron"] == "CONTRADICTED"
    assert verdicts["p2-repaired"] == "REPAIRED"
    assert all(c["matches"] for c in report["findings"]["claims"])


@pytest.mark.parametrize(
    "wrong_pair",
    [((0.0, 0.5, 0.5), (1.0 - 1e-6, 1e-6, 0.0)), ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))],
    ids=["one-vector-off", "one-vector-twice"],
)
def test_paper_check_fails_on_a_changed_verdict(capsys, monkeypatch, wrong_pair):
    """The verdict rule in the failing direction: wrong recorded vectors turn a
    repaired claim CONTRADICTED, the derived vector turns a contradicted one
    CONFIRMED, and paper-check fails on exactly those two rows."""
    monkeypatch.setattr(qcorr.fixtures, "PA_PERRONS_RECORDED", wrong_pair)
    monkeypatch.setattr(qcorr.fixtures, "P1_PERRON_RECORDED", P1_PERRON_DERIVED)
    verdicts = {r.claim_id: r.verdict for r in run_claims()}
    assert verdicts["pa-repaired-perron"] == "CONTRADICTED"
    assert verdicts["p1-perron"] == "CONFIRMED"
    code, report = _run(capsys, "paper-check")
    assert code == 1 and not report["passed"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["p1-perron", "pa-repaired-perron"]


def _agree_within(generated, bundled, tol: float, where: str = "") -> None:
    if isinstance(generated, dict):
        assert isinstance(bundled, dict) and generated.keys() == bundled.keys(), where
        for key in generated:
            _agree_within(generated[key], bundled[key], tol, f"{where}.{key}")
    elif isinstance(generated, list):
        assert isinstance(bundled, list) and len(generated) == len(bundled), where
        for k, (g, b) in enumerate(zip(generated, bundled)):
            _agree_within(g, b, tol, f"{where}[{k}]")
    elif isinstance(generated, float):
        assert abs(generated - bundled) <= tol, where
    else:
        assert generated == bundled, where


def test_bundled_corpus_is_what_the_generator_writes():
    """``tools/make_fixture_data.py`` regenerates the bundled corpus: the data
    and recorded claims of every stochastic document exactly, since ``markov``
    judges those and ``paper-check`` judges the constants they come from, and
    every other document within 1e-15 per entry."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_fixture_data.py"
    spec = importlib.util.spec_from_file_location("make_fixture_data", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generated = {name: json.loads(dumps_document(doc)) for name, doc in generator.documents()}
    assert sorted(generated) == fixture_names()
    for name, doc in generated.items():
        bundled = load_fixture_document(name)
        if doc["kind"] == "stochastic":
            assert doc["data"] == bundled["data"], name
            assert doc.get("recorded") == bundled.get("recorded"), name
        _agree_within(doc, bundled, 1e-15, name)


def test_cli_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "fixture:p1.json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "validate" and report["passed"]
    for unwritable in (tmp_path / "missing" / "r.json", tmp_path):
        code = main(["validate", "fixture:p1.json", "--out", str(unwritable)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("invalid input: cannot write report: ")
