"""The settings table in :mod:`repro.env`: one precedence rule for every
``REPRO_*`` knob, checked row by row, plus the guard that keeps every
other module from reading the variables itself."""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.env import SETTINGS, codegen_cache_dir, resolve, schedule_backend

ROOT = Path(__file__).resolve().parents[1]

#: field -> (explicit value, env text, what the env text parses to,
#: a bad env text or None when the parser accepts any text).
ROWS = {
    "backend": ("serial", "process", "process", "bogus"),
    "jobs": (3, " 2 ", 2, "abc"),
    "exec_backend": ("codegen", "interp", "interp", "compiled"),
    "cache_dir": ("/flag", " ~/env ", os.path.expanduser("~/env"), None),
    "codegen_cache_dir": ("/flag", "/env", "/env", None),
    "ledger_dir": ("/flag", "~/env", os.path.expanduser("~/env"), None),
    "specs": (False, "on", True, "enabled"),
    "tiering": (False, "1", True, "2"),
    "host": ("10.0.0.1", "0.0.0.0", "0.0.0.0", None),
    "port": (1234, "9000", 9000, "abc"),
    "queue_depth": (5, "7", 7, "0"),
    "workers": (1, "2", 2, "many"),
    "default_priority": (0, "3", 3, "high"),
}


def test_table_covers_every_setting():
    assert set(ROWS) == set(SETTINGS)
    assert len({row.env for row in SETTINGS.values()}) == len(SETTINGS)
    for row in SETTINGS.values():
        assert row.env.startswith("REPRO_")


@pytest.mark.parametrize("field", sorted(ROWS))
def test_row_precedence_and_parsing(field):
    explicit, text, parsed, bad = ROWS[field]
    row = SETTINGS[field]
    env = {row.env: text}
    # explicit beats env, env beats default
    assert resolve(field, explicit, env) == explicit
    assert resolve(field, None, env) == parsed
    assert resolve(field, None, {}) == row.default
    # a blank env value means unset
    for blank in ("", "   "):
        assert resolve(field, None, {row.env: blank}) == row.default
    # a bad value names the variable, and is never read under an
    # explicit value
    if bad is not None:
        with pytest.raises(ValueError, match=row.env):
            resolve(field, None, {row.env: bad})
        assert resolve(field, explicit, {row.env: bad}) == explicit


def test_resolve_reads_the_environment_at_call_time(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
    assert resolve("port") == 9001
    monkeypatch.setenv("REPRO_SERVE_PORT", "9002")
    assert resolve("port") == 9002


@pytest.mark.parametrize("blank", ["", "  "])
def test_explicit_blank_directory_disables(blank):
    for field in ("cache_dir", "codegen_cache_dir", "ledger_dir"):
        env = {SETTINGS[field].env: "/env"}
        assert resolve(field, blank, env) is None


def test_explicit_values_are_checked():
    with pytest.raises(ValueError, match="jobs"):
        resolve("jobs", -2)
    with pytest.raises(ValueError, match=r"\('interp', 'codegen'\)"):
        resolve("exec_backend", "compiled")


def test_schedule_backend_order():
    env = {"REPRO_SCHEDULE_BACKEND": "serial", "REPRO_SCHEDULE_JOBS": "3"}
    # explicit jobs > 1 implies process over an env serial backend
    assert schedule_backend(None, 4, env) == ("process", 4)
    assert schedule_backend("serial", 4, env) == ("serial", 4)
    # the env backend beats the backend env jobs would imply
    assert schedule_backend(None, None, env) == ("serial", 3)
    assert schedule_backend(None, None, {"REPRO_SCHEDULE_JOBS": "3"}) == (
        "process", 3,
    )
    assert schedule_backend(None, 1, {}) == ("serial", 1)
    assert schedule_backend(None, None, {}) == ("serial", None)
    with pytest.raises(ValueError, match="REPRO_SCHEDULE_JOBS"):
        schedule_backend(None, None, {"REPRO_SCHEDULE_JOBS": "abc"})


def test_codegen_cache_dir_defaults_under_the_cache_dir():
    base = {"REPRO_CACHE_DIR": "/base"}
    assert codegen_cache_dir(None, base) == os.path.join("/base", "codegen")
    both = {**base, "REPRO_CODEGEN_CACHE_DIR": "/cg"}
    assert codegen_cache_dir(None, both) == "/cg"
    assert codegen_cache_dir("/flag", base) == "/flag"
    assert codegen_cache_dir("", base) is None
    assert codegen_cache_dir(None, {}) is None


def test_design_doc_lists_every_row():
    design = (ROOT / "DESIGN.md").read_text()
    for row in SETTINGS.values():
        assert f"`{row.env}`" in design, row.env


def test_only_env_module_reads_repro_variables():
    spec = importlib.util.spec_from_file_location(
        "check_env_reads", ROOT / "tools" / "check_env_reads.py"
    )
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)
    assert guard.main() == 0
