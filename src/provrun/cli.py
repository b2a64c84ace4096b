"""Command-line surface: run jobs, inspect and export embedded provenance,
diff two datasets, and replay a dataset from its own metadata.

Exit codes: 0 success (and empty diff), 1 operational error, 2 verification
failure (checksum, lineage, replay mismatch, or a non-empty diff), so
scripts can tell triage outcomes apart.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .container import (
    differing_blocks,
    extract_info,
    refuse_overwrite,
    write_atomically,
)
from .core import PhaseStatus, run_job
from .diff import DiffReport, diff_dictionaries
from .errors import (
    ChecksumMismatch,
    LineageError,
    OptionsError,
    ProvrunError,
)
from .options import parse_options

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY = 2

OUTPUT_FILE_KEY = "ApplicationMgr.OutputFile"


def _fail(message: str, code: int = EXIT_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _code_for(exc: ProvrunError) -> int:
    if isinstance(exc, (ChecksumMismatch, LineageError)):
        return EXIT_VERIFY
    return EXIT_ERROR


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise OptionsError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OptionsError(f"{path} is not valid UTF-8: {exc}") from exc
    return parse_options(text)


def _print_report(job) -> None:
    report = job.report
    for phase in ("initialize", "execute", "finalize"):
        status = report.phases.get(phase, PhaseStatus.SKIPPED)
        print(f"{phase:<12} {status.value}")
    print(f"events seen     {report.events_seen}")
    print(f"events written  {report.events_written}")
    if report.output_path:
        print(f"output          {report.output_path}")
    if report.payload_checksum is not None:
        print(f"events crc32c   {report.payload_checksum}")


def cmd_run(config_path: str) -> int:
    config = _load_config(config_path)
    job = run_job(config)
    _print_report(job)
    if job.report.succeeded:
        return EXIT_OK
    return _fail(job.report.error, _code_for(job.failure))


def _display_value(text: str) -> str:
    # table mode shows strings without their quotes; escapes stay intact
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    return text


def cmd_view(container_path: str, fmt: str = "table") -> int:
    info = extract_info(container_path)
    if fmt == "tsv":
        for key, value in info.items():
            print(f"{key}\t{value}")
        return EXIT_OK
    width = max((len(key) for key, _ in info.items()), default=0)
    for key, value in info.items():
        print(f"{key:<{width}} | {_display_value(value)}")
    return EXIT_OK


def cmd_export(container_path: str, out_path: str) -> int:
    info = extract_info(container_path)
    refuse_overwrite(container_path, out_path)
    write_atomically(out_path, [info.emit().encode("utf-8")])
    print(f"exported {len(info)} option(s) to {out_path}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(container_path: str, out_path: str) -> int:
    info = extract_info(container_path)
    refuse_overwrite(container_path, out_path)

    config = info.to_options()
    config.set(OUTPUT_FILE_KEY, out_path)
    job = run_job(config)  # the job itself verifies every recorded input
    _print_report(job)
    if not job.report.succeeded:
        return _fail(job.report.error, _code_for(job.failure))

    differing = differing_blocks(container_path, out_path)
    if differing:
        return _fail(f"replayed blocks differ from the original: "
                     f"{', '.join(differing)}", EXIT_VERIFY)
    new_info = extract_info(out_path)
    if new_info.without(OUTPUT_FILE_KEY) != info.without(OUTPUT_FILE_KEY):
        return _fail("replayed provenance differs from the original "
                     "(beyond the output path)", EXIT_VERIFY)
    print("replay verified: blocks and provenance match", file=sys.stderr)
    return EXIT_OK


def _print_diff(report: DiffReport) -> None:
    if report.is_empty:
        print("provenance dictionaries are identical")
        return
    if report.changed:
        print("changed:")
        for key, left, right in report.changed:
            print(f"  {key}: {left} -> {right}")
    if report.only_left:
        print("only in first:")
        for key in report.only_left:
            print(f"  {key}")
    if report.only_right:
        print("only in second:")
        for key in report.only_right:
            print(f"  {key}")


def cmd_diff(path_a: str, path_b: str) -> int:
    info_a = extract_info(path_a)
    info_b = extract_info(path_b)
    report = diff_dictionaries(info_a, info_b)
    _print_diff(report)
    return EXIT_OK if report.is_empty else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provrun",
        description="Run data-processing jobs that embed their own provenance; "
                    "inspect, export, diff, and replay datasets from it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a job from an options file")
    p_run.add_argument("config", help="options file")

    p_view = sub.add_parser("view", help="print the provenance embedded in a container")
    p_view.add_argument("container")
    p_view.add_argument("--format", choices=("table", "tsv"), default="table")

    p_export = sub.add_parser("export",
                              help="write the embedded provenance as a flat, "
                                   "runnable options file")
    p_export.add_argument("container")
    p_export.add_argument("out")

    p_replay = sub.add_parser("replay",
                              help="re-run a job from a container's own metadata "
                                   "and verify the result matches")
    p_replay.add_argument("container")
    p_replay.add_argument("out", help="output path for the replayed container")

    p_diff = sub.add_parser("diff", help="compare the provenance of two containers")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "view":
            return cmd_view(args.container, args.format)
        if args.command == "export":
            return cmd_export(args.container, args.out)
        if args.command == "replay":
            return cmd_replay(args.container, args.out)
        if args.command == "diff":
            return cmd_diff(args.a, args.b)
    except ProvrunError as exc:
        return _fail(str(exc), _code_for(exc))
    return EXIT_ERROR  # pragma: no cover - argparse enforces the commands


if __name__ == "__main__":
    sys.exit(main())
