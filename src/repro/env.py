"""Every ``REPRO_*`` setting, resolved one way: explicit > env > default.

This is the only module that knows a ``REPRO_*`` variable (CI enforces
it with ``tools/check_env_reads.py``).  :data:`SETTINGS` is the table of
every environment-backed setting — field name, CLI flag, environment
variable, default and parser — and :func:`resolve` is the one lookup:

* an explicit value (CLI flag, :class:`repro.api.AnalysisConfig` field,
  keyword argument) wins and is checked by the row's parser;
* otherwise the environment variable, read at call time; a blank value
  means unset;
* otherwise the row's default.

Parsers raise :class:`ValueError` naming the variable (or, for explicit
values, the field), so the CLI can turn a bad value into a one-line
usage error.  Directory rows strip the value and expand ``~``; an
explicit blank directory disables the feature even over the
environment.

Two rules span rows and sit on top of the table:
:func:`schedule_backend` (a job count above one implies the process
backend) and :func:`codegen_cache_dir` (artifacts default to
``<cache dir>/codegen``).

None of these settings can change a verdict; they are policy.  Stdlib
only, and imports nothing from ``repro``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

__all__ = [
    "EXEC_BACKENDS",
    "SCHEDULE_BACKENDS",
    "SETTINGS",
    "Setting",
    "codegen_cache_dir",
    "resolve",
    "schedule_backend",
]

#: Execution backends (see :mod:`repro.interp.backend`): the reference
#: interpreter and the Python-source codegen tier.
EXEC_BACKENDS = ("interp", "codegen")
#: Schedule-execution backends (see :mod:`repro.core.schedule_engine`).
SCHEDULE_BACKENDS = ("serial", "process")

_SPELLINGS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, str):
        return bool(value)
    try:
        return _SPELLINGS[value.strip().lower()]
    except KeyError:
        raise ValueError(
            f"{name}={value!r} is not a boolean switch; use 1/true/yes/on "
            f"or 0/false/no/off"
        ) from None


def _int(minimum: Optional[int] = None) -> Callable[[Any, str], int]:
    def parse(value: Any, name: str) -> int:
        try:
            number = int(value.strip() if isinstance(value, str) else value)
        except ValueError:
            raise ValueError(
                f"{name}={value!r} is not an integer"
            ) from None
        if minimum is not None and number < minimum:
            raise ValueError(f"{name}={value!r} must be >= {minimum}")
        return number

    return parse


def _choice(noun: str, options: Tuple[str, ...]) -> Callable[[Any, str], str]:
    def parse(value: Any, name: str) -> str:
        if isinstance(value, str):
            value = value.strip()
        if value not in options:
            raise ValueError(
                f"unknown {noun} {value!r} ({name}); expected one of {options}"
            )
        return value

    return parse


def _text(value: Any, name: str) -> str:
    return str(value).strip()


def _directory(value: Any, name: str) -> Optional[str]:
    value = str(value).strip()
    return os.path.expanduser(value) if value else None


class Setting(NamedTuple):
    """One row of :data:`SETTINGS`."""

    field: str
    #: The CLI flag that sets it explicitly (None: no flag).
    flag: Optional[str]
    env: str
    default: Any
    #: ``parse(value, name) -> value``; ``name`` labels error messages.
    parse: Callable[[Any, str], Any]

    @property
    def dest(self) -> Optional[str]:
        """The argparse attribute the flag lands in."""
        return self.flag and self.flag.lstrip("-").replace("-", "_")


SETTINGS: Dict[str, Setting] = {row.field: row for row in (
    # The backend's default is derived: see schedule_backend().
    Setting("backend", "--backend", "REPRO_SCHEDULE_BACKEND", None,
            _choice("schedule backend", SCHEDULE_BACKENDS)),
    Setting("jobs", "--jobs", "REPRO_SCHEDULE_JOBS", None, _int(0)),
    Setting("exec_backend", "--exec-backend", "REPRO_EXEC_BACKEND",
            "codegen", _choice("exec backend", EXEC_BACKENDS)),
    Setting("cache_dir", "--cache", "REPRO_CACHE_DIR", None, _directory),
    # The default is derived: see codegen_cache_dir().
    Setting("codegen_cache_dir", None, "REPRO_CODEGEN_CACHE_DIR", None,
            _directory),
    Setting("ledger_dir", "--ledger", "REPRO_LEDGER_DIR", None, _directory),
    Setting("specs", "--specs", "REPRO_SPECS", False, _bool),
    Setting("tiering", "--tiering", "REPRO_TIERING", False, _bool),
    Setting("host", "--host", "REPRO_SERVE_HOST", "127.0.0.1", _text),
    Setting("port", "--port", "REPRO_SERVE_PORT", 8421, _int(0)),
    Setting("queue_depth", "--queue-depth", "REPRO_SERVE_QUEUE_DEPTH", 64,
            _int(1)),
    Setting("workers", "--workers", "REPRO_SERVE_WORKERS", 4, _int(1)),
    Setting("default_priority", "--priority", "REPRO_SERVE_PRIORITY", 10,
            _int()),
)}


def resolve(
    field: str,
    explicit: Any = None,
    environ: Optional[Mapping[str, str]] = None,
) -> Any:
    """The value of setting ``field``: ``explicit`` unless None, else its
    environment variable unless unset or blank, else its default."""
    row = SETTINGS[field]
    if explicit is not None:
        return row.parse(explicit, row.field)
    raw = (os.environ if environ is None else environ).get(row.env, "")
    if not raw.strip():
        return row.default
    return row.parse(raw, row.env)


def schedule_backend(
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> Tuple[str, Optional[int]]:
    """The schedule backend and job count.

    An explicit ``jobs > 1`` implies the process backend even over
    ``REPRO_SCHEDULE_BACKEND=serial``.  The order:

    backend
        1. explicit ``backend``;
        2. ``process`` implied by an explicit ``jobs > 1``;
        3. ``REPRO_SCHEDULE_BACKEND``;
        4. ``process`` implied by ``REPRO_SCHEDULE_JOBS > 1``;
        5. ``serial``.
    jobs
        1. explicit ``jobs``;
        2. ``REPRO_SCHEDULE_JOBS``;
        3. None (the process backend then uses every core).
    """
    env_jobs = resolve("jobs", None, environ)
    if jobs is None:
        jobs = env_jobs
    else:
        jobs = resolve("jobs", jobs)
        if backend is None and jobs > 1:
            backend = "process"
    backend = resolve("backend", backend, environ)
    if backend is None:
        backend = "process" if env_jobs and env_jobs > 1 else "serial"
    return backend, jobs


def codegen_cache_dir(
    explicit: Optional[str] = None, environ: Optional[Mapping[str, str]] = None
) -> Optional[str]:
    """The codegen artifact directory: ``explicit`` (blank disables),
    then ``REPRO_CODEGEN_CACHE_DIR``, then ``<cache dir>/codegen`` under
    ``REPRO_CACHE_DIR``, then None (artifacts are not persisted)."""
    directory = resolve("codegen_cache_dir", explicit, environ)
    if directory is None and explicit is None:
        base = resolve("cache_dir", None, environ)
        if base is not None:
            directory = os.path.join(base, "codegen")
    return directory
