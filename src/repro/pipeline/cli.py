"""Shared command-line plumbing for ``scripts/*.py`` and the experiments CLI:
an ``ArgumentParser`` seeded from the module docstring's first line, a
carriage-return progress line, JSON emission and ``--set`` parsing."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, IO, Optional


def script_parser(doc: Optional[str], **kwargs) -> argparse.ArgumentParser:
    """An ``ArgumentParser`` described by the script's docstring summary."""
    lines = [line.strip() for line in (doc or "").splitlines() if line.strip()]
    kwargs.setdefault("description", lines[0] if lines else "")
    return argparse.ArgumentParser(**kwargs)


def progress_printer(
    noun: str, quiet: bool = False, stream: Optional[IO[str]] = None
) -> Callable[[int, int], None]:
    """A ``(done, total)`` callback rendering the scripts' one-line ticker.

    Call :func:`finish_progress` (or print a newline) once the loop ends.
    """
    out = stream if stream is not None else sys.stdout

    def progress(done: int, total: int) -> None:
        if not quiet:
            print(f"\r  {noun} {done}/{total}", end="", flush=True, file=out)

    return progress


def finish_progress(quiet: bool = False, stream: Optional[IO[str]] = None) -> None:
    """Terminate the ticker line started by :func:`progress_printer`."""
    if not quiet:
        print(file=stream if stream is not None else sys.stdout)


def emit_json(data: object, stream: Optional[IO[str]] = None) -> None:
    """Machine-readable output, consistently formatted across scripts."""
    print(
        json.dumps(data, indent=2, sort_keys=True),
        file=stream if stream is not None else sys.stdout,
    )


def parse_override(text: str) -> tuple:
    """One ``--set key=value`` assignment; values parse as JSON, else string.

    ``--set switch_counts=[10,20]`` becomes a list, ``--set workload=mixed``
    stays a string.
    """
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value
