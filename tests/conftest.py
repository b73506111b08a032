"""Fixtures shared by the test files."""

import os
from pathlib import Path

import pytest

import hardrank
from hardrank import pointwise_ranker
from hardrank.corpus_io import RunRecord

# The directory that holds the ``hardrank`` package this test process imported.
PACKAGE_ROOT = Path(hardrank.__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child ``python -m hardrank.cli`` process.

    The absolute directory of the package under test goes first on
    ``PYTHONPATH``, so the child imports the very code this process imported,
    whatever its working directory and whether or not a copy of the package
    is installed. The rest of the environment is inherited unchanged.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def kernel_calls(monkeypatch):
    """One entry per call of the feature kernel: the (query text, internal
    ids) of each list it featurized, in order. The `rerank` memo lives on
    the index, so it starts empty on each index a test builds."""
    calls = []
    original = pointwise_ranker._feature_rows

    def counted(lists, index, params):
        calls.append([(text, tuple(ids.tolist())) for text, ids in lists])
        return original(lists, index, params)

    monkeypatch.setattr(pointwise_ranker, "_feature_rows", counted)
    return calls


@pytest.fixture
def record_constructions(monkeypatch):
    """A list that gains one entry per `RunRecord` built from now on."""
    built = []
    original = RunRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RunRecord, "__init__", counted)
    return built
