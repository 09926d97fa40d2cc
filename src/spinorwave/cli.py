"""Command-line entry point: identity verification, property checks,
field-file conversion, and the cosmological mode solver.

Exit codes: 0 success, 1 verification/integration failure, 2 usage or
configuration error.  All outputs are byte-deterministic for a fixed
(config, seed), independent of ``--jobs``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import NoReturn

import click

from .errors import ConfigError, DomainError, SpinorWaveError

DEFAULT_SEED = 12345


def _fail_usage(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read_text(path: str, what: str) -> str:
    """The text of an input file, which must be UTF-8; exits 2 otherwise."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail_usage(f"cannot read {what} {path}: {exc}")


def _load_json(path: str) -> dict:
    text = _read_text(path, "config")
    try:
        config = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        _fail_usage(f"malformed JSON in {path}: {exc}")
    if not isinstance(config, dict):
        _fail_usage(f"config {path} must be a JSON object")
    return config


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@click.group()
def main() -> None:
    """Two-spinor electromagnetic identities and conformal-time photon modes."""


@main.command()
@click.option("--config", "config_path", type=str, default=None,
              help="JSON config: {\"identities\": PATH}; default is the shipped corpus.")
@click.option("--out", "out_dir", type=str, default=None,
              help="Directory for report.json and per-identity trace files.")
def verify(config_path: str | None, out_dir: str | None) -> None:
    """Verify the identity corpus by rewriting and canonicalization."""
    from .symbolic import parse_identity_file, run_identity_cases, shipped_corpus_text

    if config_path is not None:
        config = _load_json(config_path)
        identities_path = config.get("identities")
        if not isinstance(identities_path, str):
            _fail_usage("verify config needs an 'identities' path")
        text = _read_text(identities_path, "identity file")
    else:
        text = shipped_corpus_text("identities")

    try:
        cases = parse_identity_file(text)
        reports = run_identity_cases(cases)
    except SpinorWaveError as exc:
        _fail_usage(str(exc))

    entries = []
    out = pathlib.Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        status = "ok" if report.success else "failed"
        trace_file = None
        if out:
            trace_file = f"{report.name}.trace.txt"
            (out / trace_file).write_text(report.render(), encoding="utf-8")
        entries.append(
            {
                "name": report.name,
                "status": status,
                "steps": len(report.trace),
                "trace_file": trace_file,
            }
        )
        click.echo(f"{report.name}: {status}")
    all_ok = all(r.success for r in reports)
    if out:
        (out / "report.json").write_text(
            _dump_json({"all_ok": all_ok, "identities": entries}), encoding="utf-8"
        )
    sys.exit(0 if all_ok else 1)


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True,
              help="Seed (a non-negative integer) for every randomized property suite.")
@click.option("--suite", "suite_names", type=str, multiple=True,
              help="Run only the named suite(s); a repeated name runs once.")
@click.option("--out", "out_path", type=str, default=None,
              help="Write the JSON report here instead of stdout.")
def check(seed: int, suite_names: tuple[str, ...], out_path: str | None) -> None:
    """Run the seeded property suites over the concrete spinor algebra."""
    from .suites import SUITES, run_suites

    names = sorted(set(suite_names)) if suite_names else None
    unknown = [n for n in (names or []) if n not in SUITES]
    if unknown:
        _fail_usage(f"unknown suite(s): {', '.join(unknown)}; "
                    f"available: {', '.join(sorted(SUITES))}")
    results = run_suites(seed, names)
    payload = {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }
    text = _dump_json(payload)
    if out_path:
        pathlib.Path(out_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)
    if not payload["all_passed"]:
        failed = ", ".join(r.name for r in results if not r.passed)
        click.echo(f"FAILED (seed {seed}): {failed}", err=True)
        sys.exit(1)
    sys.exit(0)


@main.command()
@click.option("--config", "config_path", type=str, required=True,
              help="JSON config: {\"direction\": \"to_spinor\"|\"to_bivector\", \"input\": PATH}.")
@click.option("--out", "out_path", type=str, required=True)
def em(config_path: str, out_path: str) -> None:
    """Convert between bivector CSV and wave-function CSV files."""
    from .em import (
        bivector_from_spinors,
        read_bivector_csv,
        read_wavefunction_csv,
        spinors_from_bivector,
        write_bivector_csv,
        write_wavefunction_csv,
    )

    config = _load_json(config_path)
    direction = config.get("direction")
    input_path = config.get("input")
    if direction not in ("to_spinor", "to_bivector") or not isinstance(input_path, str) \
            or not input_path:
        _fail_usage("em config needs direction (to_spinor|to_bivector) and input")
    text = _read_text(input_path, "input file")
    try:
        if direction == "to_spinor":
            points, field = read_bivector_csv(text)
            out_text = write_wavefunction_csv(points, spinors_from_bivector(field))
        else:
            points, wf = read_wavefunction_csv(text)
            out_text = write_bivector_csv(points, bivector_from_spinors(wf))
    except SpinorWaveError as exc:
        _fail_usage(str(exc))
    pathlib.Path(out_path).write_text(out_text, encoding="utf-8")
    sys.exit(0)


@main.command()
@click.option("--config", "config_path", type=str, required=True,
              help="JSON config; see docs/formats.md for the schema.")
@click.option("--out", "out_path", type=str, required=True,
              help="Spectrum CSV output path.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted and ignored; modes run one after another.")
def cosmo(config_path: str, out_path: str, jobs: int) -> None:
    """Integrate the conformal-time mode equation and write the spectrum."""
    from .frw import spectrum_from_config

    config = _load_json(config_path)
    try:
        rows, csv_text = spectrum_from_config(config)
    except (ConfigError, DomainError) as exc:
        _fail_usage(str(exc))
    pathlib.Path(out_path).write_text(csv_text, encoding="utf-8")
    failed = [row for row in rows if row.status != "ok"]
    for row in failed:
        click.echo(f"k={row.k!r}: {row.failure}", err=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
