"""The process configuration: every ``REPRO_*`` setting, parsed once.

This module is the only code in the package that reads the environment;
every other module asks :func:`current`.  :meth:`Config.from_env` is a
pure parser with one grammar per type (a boolean is ``1`` or ``0``, a
count an integer of at least 1, a choice a member of a fixed tuple, a
directory an absolute path; unset or empty means the default), and any
other value raises :class:`ConfigError` naming the variable.

:func:`current` resolves ``os.environ`` on its first call, never at
import, and is a plain global read after that.  The value is process-wide,
so the service daemon's runner threads see the config of the command that
started them.  :func:`use` installs a config for a ``with`` block: the CLI
runs each command under it with the command's flags applied, and tests
use it instead of writing ``os.environ``, which does nothing once the
config is resolved.

Only the fusion mode changes what a program computes or what the tuner
picks (the engines are bit-identical; guard, validator and caches never
change a value), so it is the only setting that cache keys and job
fingerprints record: :meth:`Config.result_affecting`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

__all__ = ["Config", "ConfigError", "ENGINES", "FUSIONS", "RESULT_AFFECTING",
           "RESULT_NEUTRAL", "current", "install", "use"]

#: fusion modes a user can select (the greedy pass is internal to ``ilp``)
FUSIONS = ("ilp", "off")
ENGINES = ("scalar", "vector", "codegen")

RESULT_AFFECTING = ("fusion",)
RESULT_NEUTRAL = ("engine", "validate", "cache", "guard", "guard_trip",
                  "verify_rate", "codegen_cache", "corpus_dir")


class ConfigError(ValueError):
    """A ``REPRO_*`` variable holds a value outside its grammar."""


@dataclass(frozen=True)
class Config:
    fusion: str = "ilp"  # REPRO_FUSION, --fusion
    engine: str = "scalar"  # REPRO_EXEC, run --exec
    validate: bool = False  # REPRO_VALIDATE; on under repro check
    cache: bool = True  # REPRO_NO_CACHE=1 turns every cache layer off
    guard: bool = True  # REPRO_GUARD: the codegen demotion ladder
    guard_trip: int = 3  # REPRO_GUARD_TRIP: failures before a breaker trips
    verify_rate: float = 0.0  # --verify-rate
    #: REPRO_CODEGEN_CACHE, compile_cache.set_dir; None: a temp directory
    codegen_cache: str | None = None
    #: REPRO_CORPUS_DIR; None: guard.corpus_dir picks a default
    corpus_dir: str | None = None

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> Config:
        """Parse the ``REPRO_*`` variables of ``env``."""
        fields = {}
        for var, (name, parse) in _VARIABLES.items():
            raw = env.get(var, "")
            if raw:
                try:
                    fields[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"{var}={raw!r}: expected {exc}") from None
        return cls(**fields)

    def result_affecting(self) -> dict:
        """The settings that change results, for cache keys and job specs."""
        return {name: getattr(self, name) for name in RESULT_AFFECTING}


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("1, 0 or empty")
    return raw == "1"


def _count(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError("an integer >= 1")
    return int(raw)


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"one of {', '.join(options)}")
        return raw
    return parse


def _directory(raw: str) -> str:
    # a relative path names another directory in each working directory,
    # so processes meant to share it would not
    if not os.path.isabs(raw):
        raise ValueError("an absolute path")
    return raw


#: environment variable -> (Config field, parser)
_VARIABLES: dict[str, tuple[str, Callable[[str], object]]] = {
    "REPRO_FUSION": ("fusion", _choice(FUSIONS)),
    "REPRO_EXEC": ("engine", _choice(ENGINES)),
    "REPRO_VALIDATE": ("validate", _flag),
    "REPRO_NO_CACHE": ("cache", lambda raw: not _flag(raw)),
    "REPRO_GUARD": ("guard", _flag),
    "REPRO_GUARD_TRIP": ("guard_trip", _count),
    "REPRO_CODEGEN_CACHE": ("codegen_cache", _directory),
    "REPRO_CORPUS_DIR": ("corpus_dir", _directory),
}

_current: Config | None = None


def current() -> Config:
    """The process's config, resolved from ``os.environ`` on the first call."""
    return _current or install(Config.from_env(os.environ))


def install(cfg: Config) -> Config:
    """Make ``cfg`` the process's config (an enclosing :func:`use` block
    still restores its predecessor when it ends)."""
    global _current
    _current = cfg
    return cfg


@contextmanager
def use(cfg: Config) -> Iterator[Config]:
    """Install ``cfg`` for the ``with`` block, then restore the previous
    config.  Blocks nest; one thread at a time installs, others read."""
    global _current
    saved = _current
    _current = cfg
    try:
        yield cfg
    finally:
        _current = saved
