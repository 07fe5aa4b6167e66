"""Shared fixtures: the paper's running example and small dataset documents."""

from __future__ import annotations

import re

import pytest

from repro.datasets import ALL_DATASETS
from repro.grammar import parse_dtd


def non_ascii(text):
    """Non-ASCII character data before every letter that follows a tag."""
    return re.sub(r">(?=[A-Za-z])", ">Zoë·東京 𝔛 ", text)


#: the paper's running example (Figure 4-a): recursive grammar
RUNNING_DTD = """<!DOCTYPE a [
  <!ELEMENT a (b+, c)>
  <!ELEMENT b (a+)>
  <!ELEMENT c (#PCDATA)>
]>"""

#: Figure 4-b input (note: the paper's own example data places <c>
#: before <b>, which its DTD's (b+, c) ordering forbids — the static
#: syntax tree and transducer semantics ignore sibling order, so the
#: example still exercises exactly the paper's trace)
RUNNING_XML = "<a><c>x</c><b><a><c>y</c></a></b></a>"

#: Figure 4-c query
RUNNING_QUERY = "/a/b/a/c"

#: Figure 1 grammar/data
FEED_DTD = """<!DOCTYPE feed [
  <!ELEMENT feed (entry+, id)>
  <!ELEMENT entry (id?, title)>
  <!ELEMENT id (#PCDATA)>
  <!ELEMENT title (#PCDATA)>
]>"""

FEED_XML = (
    "<feed><entry><title>a post</title></entry>"
    "<entry><id>entry-id-2</id><title>another</title></entry>"
    "<id>feed-id</id></feed>"
)


@pytest.fixture
def running_grammar():
    return parse_dtd(RUNNING_DTD)


@pytest.fixture
def feed_grammar():
    return parse_dtd(FEED_DTD)


@pytest.fixture(scope="session")
def small_documents():
    """One small generated document per dataset (validated elsewhere)."""
    return {name: ds.generate(scale=0.5, seed=7) for name, ds in ALL_DATASETS.items()}
