import pytest

from nbestkernel import SpaceSpec, engine

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, passed: bool) -> None:
    line = f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'}"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion():
    return record_criterion


@pytest.fixture(scope="session")
def hardy():
    return SpaceSpec.hardy()


@pytest.fixture(scope="session")
def hardy_small():
    return SpaceSpec.hardy(max_degree=256, radius_cap=0.9)


@pytest.fixture(scope="session")
def bergman0():
    return SpaceSpec.bergman(0.0)


@pytest.fixture(scope="session")
def dirichlet():
    return SpaceSpec.weighted_hardy(1.0)


@pytest.fixture
def declined_exact_path(monkeypatch):
    """The n-best search with its exact path declining every signal
    (``engine._exact_candidate`` returns None), so that a test written on an
    exact kernel mix keeps covering the lanes and the merge polish."""
    monkeypatch.setattr(engine, "_exact_candidate", lambda *args: None)
