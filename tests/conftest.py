import pytest


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps the function ``module.name`` for one test
    and returns a list that gets the positional arguments of each call."""
    def install(module, name):
        calls = []
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
        return calls
    return install
