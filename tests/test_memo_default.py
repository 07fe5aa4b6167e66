"""The structural memo is opt-in: every default path runs without it.

``memo=True`` (``--memo`` on the CLI) still selects it; the opt-in path
stays covered by ``tests/test_memo_differential.py`` and by the
memo-parametrized service tests.  Streams have no memo knob: every
sealed chunk runs from its exact entry, which never consults the memo.
"""

from __future__ import annotations

import pytest

from repro import GapEngine, PPTransducerEngine
from repro.cli import _build_parser
from repro.datasets import ALL_DATASETS, generate_query_set
from repro.service import ServiceConfig
from repro.stream import StreamSession
from repro.xpath import memo_info

from tests.conftest import FEED_DTD


class TestDefaultsAreOff:
    def test_gap_engine(self):
        assert GapEngine(["//title"]).memo is False

    def test_pp_engine(self):
        assert PPTransducerEngine(["//title"]).memo is False

    def test_service_config(self):
        assert ServiceConfig().memo is False

    def test_stream_session(self):
        session = StreamSession(["//title"], grammar=FEED_DTD)
        assert session.engine.memo is False

    @pytest.mark.parametrize("argv", [
        ["query", "doc.xml", "-q", "//a"],
        ["speedup", "xmark"],
        ["serve"],
    ])
    def test_cli_parser(self, argv):
        parser = _build_parser()
        assert parser.parse_args(argv).memo is False
        assert parser.parse_args([*argv, "--memo"]).memo is True


def test_default_run_leaves_the_memo_untouched():
    ds = ALL_DATASETS["lineitem"]
    text = ds.generate(scale=1.0, seed=3)
    queries = generate_query_set(ds, 4)
    keys = ("hits", "misses", "entries")
    before = {k: memo_info()[k] for k in keys}
    result = GapEngine(queries, grammar=ds.dtd, n_chunks=8).run(text)
    assert any(result.matches.values())
    assert {k: memo_info()[k] for k in keys} == before
