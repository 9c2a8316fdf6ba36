"""Suite-wide fixtures: always-on IR validation, per-test configuration,
and golden-file updating."""

import contextlib
from dataclasses import replace

import pytest

from repro import config


@pytest.fixture(autouse=True, scope="session")
def _always_validate():
    """Run the IR validator after every compiler pass for the whole suite.

    This is the tests' equivalent of ``REPRO_VALIDATE=1``: any pass that
    breaks scoping, typing, level nesting, or guard placement fails loudly
    at the pass that introduced the violation.  The rest of the config
    comes from the environment, as the CI engine legs set it.
    """
    with config.use(replace(config.current(), validate=True)):
        yield


@pytest.fixture
def configure():
    """Set config fields for the rest of one test: ``configure(cache=False)``.

    Each call applies on top of the config in force; the test's end
    restores the config it started with, also after a
    ``compile_cache.set_dir``.  A variable written to
    ``os.environ`` reaches only child processes, because this process
    resolved its config already.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(config.use(config.current()))

        def apply(**fields) -> config.Config:
            return stack.enter_context(
                config.use(replace(config.current(), **fields))
            )

        yield apply


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files under tests/goldens/ instead of comparing",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")
