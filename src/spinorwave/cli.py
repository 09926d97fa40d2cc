"""Command-line entry point: identity verification, property checks,
field-file conversion, and the cosmological mode solver.

:func:`run` is the process entry (the ``spinorwave`` console script and
``python -m spinorwave.cli``): it runs :func:`main` and freezes the garbage
collector's heap on the way out.  ``main(argv)`` is the in-process API and
leaves the collector alone.

Exit codes: 0 success, 1 verification/integration failure, 2 usage or
configuration error.  All outputs are byte-deterministic for a fixed
(config, seed).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
from typing import NoReturn

from .errors import ConfigError, DomainError, SpinorWaveError

DEFAULT_SEED = 12345


def _fail_usage(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _read_text(path: str, what: str) -> str:
    """The text of an input file, which must be UTF-8; exits 2 otherwise."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail_usage(f"cannot read {what} {path}: {exc}")


def _write_text(path: pathlib.Path | str, text: str, what: str) -> None:
    """Write an output file as UTF-8; exits 2 if it cannot be written."""
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail_usage(f"cannot write {what} {path}: {exc}")


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


def verify(config_path: str | None, out_dir: str | None) -> NoReturn:
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
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail_usage(f"cannot create output directory {out}: {exc}")
    for report in reports:
        status = "ok" if report.success else "failed"
        trace_file = None
        if out:
            trace_file = f"{report.name}.trace.txt"
            _write_text(out / trace_file, report.render(), "trace file")
        entries.append(
            {
                "name": report.name,
                "status": status,
                "steps": len(report.trace),
                "trace_file": trace_file,
            }
        )
        print(f"{report.name}: {status}")
    all_ok = all(r.success for r in reports)
    if out:
        _write_text(out / "report.json",
                    _dump_json({"all_ok": all_ok, "identities": entries}), "report")
    sys.exit(0 if all_ok else 1)


def check(seed: int, suite_names: list[str] | None, out_path: str | None) -> NoReturn:
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
        "suites": [r._asdict() for r in results],
    }
    text = _dump_json(payload)
    if out_path:
        _write_text(out_path, text, "report")
    else:
        sys.stdout.write(text)
    if not payload["all_passed"]:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"FAILED (seed {seed}): {failed}", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


def em(config_path: str, out_path: str) -> NoReturn:
    """Convert between bivector CSV and wave-function CSV files."""
    from .em import (
        NonFiniteRowError,
        bivector_from_spinors,
        data_line_number,
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
    except NonFiniteRowError as exc:
        _fail_usage(f"line {data_line_number(text, exc.row)}: the converted values "
                    "are beyond float range")
    except SpinorWaveError as exc:
        _fail_usage(str(exc))
    _write_text(out_path, out_text, "output file")
    sys.exit(0)


def cosmo(config_path: str, out_path: str) -> NoReturn:
    """Integrate the conformal-time mode equation and write the spectrum."""
    from .frw import spectrum_from_config

    config = _load_json(config_path)
    try:
        rows, csv_text = spectrum_from_config(config)
    except (ConfigError, DomainError) as exc:
        _fail_usage(str(exc))
    _write_text(out_path, csv_text, "spectrum")
    failed = [row for row in rows if row.status != "ok"]
    for row in failed:
        print(f"k={row.k!r}: {row.failure}", file=sys.stderr)
    sys.exit(1 if failed else 0)


class _Parser(argparse.ArgumentParser):
    """Every usage error exits 2 with one ``error:`` line on stderr."""

    def error(self, message: str) -> NoReturn:
        _fail_usage(message)


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer (``int`` syntax)."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        _fail_usage(f"Invalid value for '--seed': {text!r} is not a non-negative integer")
    return seed


def _with_help(parser: _Parser) -> _Parser:
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _parser() -> _Parser:
    """The parser of every subcommand.  Option names are never abbreviated,
    and ``--help`` is the only help option."""
    parser = _with_help(_Parser(prog="spinorwave", description=main.__doc__,
                                allow_abbrev=False, add_help=False))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def subcommand(run) -> _Parser:
        sub = _with_help(commands.add_parser(run.__name__, help=run.__doc__,
                                             description=run.__doc__,
                                             allow_abbrev=False, add_help=False))
        sub.set_defaults(run=run)
        return sub

    sub = subcommand(verify)
    sub.add_argument("--config", dest="config_path", metavar="PATH",
                     help="JSON config: {\"identities\": PATH}; default is the shipped corpus.")
    sub.add_argument("--out", dest="out_dir", metavar="DIR",
                     help="Directory for report.json and per-identity trace files.")

    sub = subcommand(check)
    sub.add_argument("--seed", type=_seed, metavar="N", default=DEFAULT_SEED,
                     help="Seed (a non-negative integer) for every randomized property "
                          "suite (default: %(default)s).")
    sub.add_argument("--suite", dest="suite_names", metavar="NAME", action="append",
                     help="Run only the named suite(s); a repeated name runs once.")
    sub.add_argument("--out", dest="out_path", metavar="PATH",
                     help="Write the JSON report here instead of stdout.")

    sub = subcommand(em)
    sub.add_argument("--config", dest="config_path", metavar="PATH", required=True,
                     help="JSON config: {\"direction\": \"to_spinor\"|\"to_bivector\", "
                          "\"input\": PATH}.")
    sub.add_argument("--out", dest="out_path", metavar="PATH", required=True)

    sub = subcommand(cosmo)
    sub.add_argument("--config", dest="config_path", metavar="PATH", required=True,
                     help="JSON config; see docs/formats.md for the schema.")
    sub.add_argument("--out", dest="out_path", metavar="PATH", required=True,
                     help="Spectrum CSV output path.")
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Two-spinor electromagnetic identities and conformal-time photon modes."""
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        word = extra[0]
        parser.error(f"No such option '{word.split('=', 1)[0]}'" if word.startswith("-")
                     else f"Got unexpected extra argument ({word})")
    options = vars(args)
    options.pop("run")(**options)


# ``perfbench/run.py`` calls ``main.main(args=argv, prog_name=..., standalone_mode=False)``;
# this attribute exists only for that caller, until it calls ``main(argv)``
# (ROADMAP item 6).
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


def run() -> NoReturn:
    """Process entry: :func:`main` on ``sys.argv``, then ``gc.freeze()``, so
    the interpreter's collections at shutdown skip every object still alive
    at exit instead of scanning the whole heap the layers built."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
