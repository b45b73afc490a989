"""One codec for every versioned JSON artifact the repo reads back.

Corpus cases, bench/growth/SLO reports and ledgers, traces, span trees and
the spec objects they embed all share one envelope discipline: a JSON
object carrying a schema version under a fixed key (``"v"`` or, for the
older spec objects, ``"version"``) and, for most whole documents, a fixed
``"kind"``.  :func:`check_envelope` is the single place that discipline is
enforced, so every reader refuses foreign input with the same
:class:`~repro.errors.ConfigurationError` wording.

Append-only ledgers (the trace JSONL, the bench and SLO history) share
one torn-tail contract, implemented once by :func:`iter_jsonl`: a crash
mid-append leaves at most one unparseable *final* line, which is dropped
with a :class:`RuntimeWarning`; an unparseable line with durable lines
after it is corruption and raises; a parseable line with a foreign version
raises even at the tail, because a version mismatch is never a partial
write.

The envelope key and kind of each format are frozen on disk: committed
corpora, baselines and ledgers must keep loading, so readers pass them as
constants, never as options.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["check_envelope", "decode_json", "iter_jsonl", "read_json"]


def check_envelope(
    data: Any,
    what: str,
    version: int,
    *,
    key: str = "v",
    kind: Optional[str] = None,
) -> Dict[str, Any]:
    """Return ``data`` if it is a ``what`` envelope this build reads.

    Raises :class:`~repro.errors.ConfigurationError` for a non-object, a
    missing or foreign ``data[key]`` version, and (when ``kind`` is given)
    a ``"kind"`` other than ``kind``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    if data.get(key) != version:
        raise ConfigurationError(
            f"unsupported {what} version {data.get(key)!r}; "
            f"this build reads version {version}"
        )
    if kind is not None and data.get("kind") != kind:
        raise ConfigurationError(
            f"wrong {what} kind {data.get('kind')!r}; expected {kind!r}"
        )
    return data


def decode_json(text: Union[str, bytes], where: str) -> Any:
    """``json.loads`` whose failure is a ConfigurationError naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{where} is not valid JSON: {error}"
        ) from error


def read_json(path: Union[str, Path]) -> Any:
    """Decode one whole-file JSON document; the caller checks the envelope.

    A missing or unreadable file and undecodable content both raise
    :class:`~repro.errors.ConfigurationError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"{str(path)!r} cannot be read: {error}"
        ) from error
    return decode_json(text, repr(str(path)))


def iter_jsonl(
    path: Union[str, Path],
    what: str,
    version: int,
    *,
    key: str = "v",
    kind: Optional[str] = None,
) -> Iterator[Dict[str, Any]]:
    """Stream an append-only JSONL ledger of ``what`` envelopes, in order.

    A missing file is an empty ledger.  See the module docstring for the
    torn-tail contract; every envelope goes through :func:`check_envelope`.
    """
    path = Path(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    except OSError as error:
        raise ConfigurationError(
            f"{str(path)!r} cannot be read: {error}"
        ) from error
    pending: Optional[Tuple[int, str]] = None
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise ConfigurationError(
                    f"{str(path)!r} line {pending[0]} is unreadable but "
                    f"later lines exist: {pending[1]}"
                )
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                pending = (line_number, str(error))
                continue
            try:
                check_envelope(data, what, version, key=key, kind=kind)
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"{str(path)!r} line {line_number}: {error}"
                ) from error
            yield data
    if pending is not None:
        warnings.warn(
            f"{str(path)!r} ends with a torn line (line {pending[0]}); "
            f"dropping it: {pending[1]}",
            RuntimeWarning,
            stacklevel=2,
        )
