"""Command-line interface.

Subcommands: validate, classify, markov, broadcast, paper-check. Every
command emits a deterministic JSON report (stdout or --out) and exits with
0 on pass, 1 when a check fails, 2 on invalid input, 3 when a resource cap
is exceeded. Input paths of the form ``fixture:NAME`` resolve into the
bundled corpus (see ``qcorr.fixtures.fixture_names``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import claims as claims_engine
from .broadcast import (
    broadcastable_states,
    corollary_check,
    correlation_family,
    require_map,
    verify_full_broadcast,
    verify_local_broadcast,
    verify_spectrum_broadcast,
)
from .errors import ChannelTypeError, ManifestError, MemoryCapError, NotPrimitiveError
from .fixtures import fixture_path
from .linalg import DEFAULT_TOL
from .manifest import (
    SCHEMA,
    CheckResult,
    Manifest,
    _encode_real_matrix,
    _read_json,
    _real_matrix,
    dumps_document,
    load_manifest,
    realize,
    to_document,
    validate_manifest,
)
from .markov import _recorded_matches, block_decompose, ergodic_limit, transition_matrix
from .structure import cc_from_measurement, classical_side_basis, correlation_label, qc_type_extract

__all__ = ["main"]

COROLLARY_MIN_TOL = 1e-8  # the sampled two-channel corollary is never held tighter


def _resolve_path(path: str) -> str:
    if path.startswith("fixture:"):
        return fixture_path(path[len("fixture:") :])
    return path


def _load(path: str) -> tuple[Manifest, dict]:
    resolved = _resolve_path(path)
    try:
        with open(resolved, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}")
    manifest = load_manifest(resolved)
    record = {"path": path, "sha256": digest}
    if manifest.label:
        record["label"] = manifest.label
    return manifest, record


def _report(command: str, inputs: list[dict], parameters: dict, checks, findings: dict) -> dict:
    rows = [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks]
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "checks": rows,
        "findings": findings,
        "passed": all(r["passed"] for r in rows) if rows else True,
    }


def _vector(v) -> list[float]:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _tolerance(args) -> float:
    """``--tol``, ``DEFAULT_TOL`` when absent; refused unless finite and >= 0."""
    if args.tol is None:
        return DEFAULT_TOL
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    return args.tol


# -- validate -------------------------------------------------------------------


def _cmd_validate(args) -> dict:
    manifest, record = _load(args.path)
    checks = validate_manifest(manifest)
    findings = {"kind": manifest.kind, "label": manifest.label, "note": manifest.note}
    return _report("validate", [record], {}, checks, findings)


# -- classify -------------------------------------------------------------------


def _side_record(structure) -> dict:
    rec: dict = {"classical": bool(structure), "witness": float(structure.witness)}
    if structure:
        rec["basis"] = to_document(structure.basis, label=f"side-{structure.side} pointer basis")
        rec["probabilities"] = _vector(structure.probabilities)
    return rec


def _cmd_classify(args) -> dict:
    tol = _tolerance(args)
    manifest, record = _load(args.path)
    parameters = {"tol": tol}
    if manifest.kind == "state":
        state = realize(manifest)
        if state.n_factors != 2:
            raise ValueError("classification requires a bipartite state manifest")
        if args.side:
            parameters["side"] = args.side
        sides = {side: classical_side_basis(state, side, tol) for side in args.side or "AB"}
        findings: dict = {
            "subject": "state",
            "sides": {side: _side_record(s) for side, s in sides.items()},
        }
        if not args.side:
            findings["label"] = correlation_label(sides["A"], sides["B"])
        return _report("classify", [record], parameters, [], findings)
    if manifest.kind == "channel":
        if args.side:
            raise ValueError("--side applies only to state manifests")
        mm = qc_type_extract(realize(manifest), tol)
        findings = {"subject": "channel"}
        if mm is None:
            findings["channel_type"] = "neither"
        else:
            cc = cc_from_measurement(mm, tol)
            findings["measurement"] = to_document(mm, label="extracted measurement map")
            if cc is None:
                findings["channel_type"] = "QC-type"
            else:
                findings["channel_type"] = "CC-type"
                findings["transition"] = to_document(cc.transition, label="conditional table")
                findings["joint_probs"] = _encode_real_matrix(cc.joint_probs)
                findings["eigenbasis"] = to_document(cc.eigenbasis, label="common eigenbasis")
        return _report("classify", [record], parameters, [], findings)
    raise ValueError(f"classify expects a state or channel manifest, got kind {manifest.kind!r}")


# -- markov ---------------------------------------------------------------------


def _load_basis(path: str, inputs: list[dict]) -> np.ndarray:
    """Realize a ``--basis`` document and record it among the inputs."""
    manifest, record = _load(path)
    if manifest.kind != "basis":
        raise ValueError("--basis expects a basis manifest")
    inputs.append(record)
    return realize(manifest)


def _markov_transition(args, manifest, inputs: list[dict]):
    if manifest.kind == "stochastic":
        if args.basis:
            raise ValueError("--basis does not apply to a stochastic manifest")
        return realize(manifest)
    if manifest.kind in ("channel", "povm"):
        mm = realize(manifest)
        if manifest.kind == "channel":
            mm = require_map(mm, "channel")
        basis = _load_basis(args.basis, inputs) if args.basis else np.eye(mm.d_in)
        return transition_matrix(mm.povm, basis)
    raise ValueError(
        f"markov expects a stochastic, channel, or povm manifest, got kind {manifest.kind!r}"
    )


def _recorded_flags(manifest: Manifest, analysis) -> list[dict]:
    recorded = manifest.payload.get("recorded") or {}
    flags: list[dict] = []
    if "irreducible" in recorded:
        derived = analysis.irreducible
        flags.append(
            {
                "property": "irreducible",
                "recorded": recorded["irreducible"],
                "derived": derived,
                "agrees": derived == recorded["irreducible"],
            }
        )
    if "perron" in recorded:
        derived = [_vector(v) for v in analysis.perron_vectors]
        matches = _recorded_matches(recorded["perron"], analysis.perron_vectors)
        for target, match in zip(recorded["perron"], matches):
            flags.append(
                {
                    "property": "perron",
                    "recorded": _vector(target),
                    "derived": derived,
                    "agrees": match is not None,
                }
            )
    return flags


def _cmd_markov(args) -> dict:
    if args.power is not None and args.power < 1:
        raise ValueError("power must be a positive integer")
    manifest, record = _load(args.path)
    inputs = [record]
    table = _markov_transition(args, manifest, inputs)
    parameters = {}
    findings: dict = {
        "transition": to_document(table, label="transition table"),
        "shape": [table.n_rows, table.n_cols],
    }
    square = table.is_square
    findings["square"] = square
    if square:
        analysis = block_decompose(table)
        findings["irreducible"] = analysis.irreducible
        findings["primitive"] = analysis.primitive
        findings["degeneracy"] = analysis.degeneracy
        findings["blocks"] = [
            {
                "indices": list(c.indices),
                "recurrent": c.recurrent,
                "primitive": c.primitive,
            }
            for c in analysis.classes
        ]
        findings["perron_vectors"] = [_vector(v) for v in analysis.perron_vectors]
        flags = _recorded_flags(manifest, analysis)
        if flags:
            findings["recorded_flags"] = flags
        if args.power:
            parameters["power"] = args.power
            findings["power"] = _encode_real_matrix(
                np.linalg.matrix_power(table.matrix, args.power)
            )
        if args.limit:
            parameters["limit"] = True
            lim = ergodic_limit(analysis)
            findings["limit"] = {
                "matrix": _encode_real_matrix(lim.matrix),
                "perron": _vector(lim.perron),
                "r_converged": lim.r_converged,
            }
    elif args.power or args.limit:
        raise ValueError("powers and limits need a square transition table")
    return _report("markov", inputs, parameters, [], findings)


# -- broadcast ------------------------------------------------------------------


def _load_pi(path: str):
    return _real_matrix(_read_json(_resolve_path(path), "pi table"), "pi")


def _broadcast_row(report) -> dict:
    return {
        "mode": report.mode,
        "copies": report.copies,
        "distances": [float(x) for x in report.distances],
        "fixed_point_residual": float(report.fixed_point_residual),
    }


def _local_broadcast(args, mm_a, mm_b, states_a, states_b, pi, tol, findings, checks):
    """Verify the local broadcast of the family correlated by ``pi`` and
    record ``pi``, ``family``, ``local_broadcast`` and its check."""
    family = correlation_family(states_a, states_b, pi)
    local = verify_local_broadcast(mm_a, mm_b, args.copies, family, mode=args.mode, tol=tol)
    findings["pi"] = _encode_real_matrix(pi)
    findings["family"] = to_document(family, label="correlated stationary family")
    findings["local_broadcast"] = _broadcast_row(local)
    checks.append(
        CheckResult(
            "local-broadcast",
            local.passed,
            f"max paired-reduction distance {max(local.distances):.3e}",
        )
    )
    return local


def _cmd_broadcast(args) -> dict:
    if args.second_channel and args.basis:
        raise ValueError("--basis cannot be combined with --second-channel")
    if args.seed is not None and not args.second_channel:
        raise ValueError("--seed applies only with --second-channel")
    tol = _tolerance(args)
    manifest, record = _load(args.path)
    if manifest.kind != "channel":
        raise ValueError(f"broadcast expects a channel manifest, got kind {manifest.kind!r}")
    inputs = [record]
    channel = realize(manifest)
    mm = require_map(channel, "channel")
    parameters: dict = {"copies": args.copies, "mode": args.mode, "tol": tol}
    checks: list[CheckResult] = []
    findings: dict = {}

    if args.second_channel:
        second_manifest, second_record = _load(args.second_channel)
        if second_manifest.kind != "channel":
            raise ValueError("--second-channel expects a channel manifest")
        inputs.append(second_record)
        parameters["seed"] = seed = args.seed or 0
        channel_b = realize(second_manifest)
        mm_b = require_map(channel_b, "second channel")
        bs_a = broadcastable_states(mm)
        bs_b = broadcastable_states(mm_b)
        if args.pi:
            pi = _load_pi(args.pi)
        else:
            pi = np.full((bs_a.degeneracy, bs_b.degeneracy), 1.0 / (bs_a.degeneracy * bs_b.degeneracy))
        findings["degeneracy"] = [bs_a.degeneracy, bs_b.degeneracy]
        local = _local_broadcast(args, mm, mm_b, bs_a.states, bs_b.states, pi, tol, findings, checks)
        findings["local_broadcast"]["joint_distribution"] = _encode_real_matrix(local.joint_distribution)
        corollary = corollary_check(
            channel, mm, channel_b, mm_b, 50, seed, max(tol, COROLLARY_MIN_TOL)
        )
        findings["corollary"] = {
            "samples": corollary.samples,
            "max_deviation": float(corollary.max_deviation),
            "all_cc": corollary.all_cc,
        }
        checks.append(
            CheckResult(
                "two-channel-cc",
                corollary.passed,
                f"max deviation {corollary.max_deviation:.3e} over {corollary.samples} samples",
            )
        )
        return _report("broadcast", inputs, parameters, checks, findings)

    bs = broadcastable_states(mm, _load_basis(args.basis, inputs) if args.basis else None)
    findings["degeneracy"] = bs.degeneracy
    findings["broadcastable_states"] = [
        to_document(state, label=f"stationary state {k}") for k, state in enumerate(bs.states)
    ]
    verify = verify_full_broadcast if args.mode == "full" else verify_spectrum_broadcast
    rows = []
    for k, state in enumerate(bs.states):
        rep = verify(mm, args.copies, state, tol=tol)
        rows.append({"state_index": k, **_broadcast_row(rep), "passed": bool(rep.passed)})
        checks.append(
            CheckResult(
                f"{rep.mode}-broadcast-{k}",
                rep.passed,
                f"max reduction distance {max(rep.distances):.3e}",
            )
        )
    findings["verifications"] = rows
    if args.pi:
        _local_broadcast(args, mm, mm, bs.states, bs.states, _load_pi(args.pi), tol, findings, checks)
    return _report("broadcast", inputs, parameters, checks, findings)


# -- paper-check ------------------------------------------------------------------


def _cmd_paper_check(args) -> dict:
    results = claims_engine.run_claims()
    checks = [
        CheckResult(
            r.claim_id,
            r.matches,
            f"{r.verdict} (expected {r.expected}); {r.detail}",
        )
        for r in results
    ]
    findings = {
        "claims": [
            {
                "id": r.claim_id,
                "statement": r.statement,
                "expected": r.expected,
                "verdict": r.verdict,
                "detail": r.detail,
                "matches": r.matches,
            }
            for r in results
        ]
    }
    return _report("paper-check", [], {}, checks, findings)


# -- dispatch -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Analyze channels for classical structure, Markov behavior, and broadcasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="run the invariants of a manifest")
    p_validate.add_argument("path")
    p_validate.add_argument("--out", help="write the JSON report to a file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_classify = sub.add_parser("classify", help="classical structure of a state or channel")
    p_classify.add_argument("path")
    p_classify.add_argument("--side", choices=["A", "B"], help="test one side only (states)")
    p_classify.add_argument("--tol", type=float, default=None)
    p_classify.add_argument("--out")
    p_classify.set_defaults(handler=_cmd_classify)

    p_markov = sub.add_parser("markov", help="transition-table analysis")
    p_markov.add_argument("path")
    p_markov.add_argument("--basis", help="basis manifest for channel/povm inputs")
    p_markov.add_argument("--power", type=int, default=None, help="also report the r-th power")
    p_markov.add_argument("--limit", action="store_true", help="also report the ergodic limit")
    p_markov.add_argument("--out")
    p_markov.set_defaults(handler=_cmd_markov)

    p_broadcast = sub.add_parser("broadcast", help="stationary states and broadcast verification")
    p_broadcast.add_argument("path")
    p_broadcast.add_argument("--basis", help="basis manifest (defaults to the channel basis)")
    p_broadcast.add_argument("--copies", type=int, default=2)
    p_broadcast.add_argument("--mode", choices=["spectrum", "full"], default="full")
    p_broadcast.add_argument("--second-channel", dest="second_channel")
    p_broadcast.add_argument("--pi", help="JSON file holding a 2D weight table")
    p_broadcast.add_argument("--tol", type=float, default=None)
    p_broadcast.add_argument("--seed", type=int, default=None, help="needs --second-channel")
    p_broadcast.add_argument("--out")
    p_broadcast.set_defaults(handler=_cmd_broadcast)

    p_paper = sub.add_parser("paper-check", help="re-derive the recorded fixture claims")
    p_paper.add_argument("--out")
    p_paper.set_defaults(handler=_cmd_paper_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except ManifestError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except MemoryCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ChannelTypeError, NotPrimitiveError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    text = dumps_document(report)
    if not args.out:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"invalid input: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
