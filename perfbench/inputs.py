"""Seeded inputs and DOM-oracle answers for the three workloads.

Everything a run feeds the program is derived here from the one
``--seed`` argument: document seeds, query draws, the request mix and
the arrival schedule.  Expected match offsets come from the DOM
reference evaluator (``repro.xpath.reference``), never from the engine
under test.
"""

from __future__ import annotations

import random
import re

#: offered rate of service-xmark's fixed-rate phase (requests/s); it sits
#: well below the service's capacity at the slowest host speed observed
SERVICE_FIXED_RPS = 8.0
#: p90 latency limit the service-xmark rate ladder must meet
SERVICE_LIMIT_MS = 500.0

#: Lineitem document scales, one document each: 141 KB to 423 KB, 282 KB
#: (scale 8) on average.  Graded sizes make the operation latencies a
#: continuous distribution: with equal documents they cluster at the
#: host's two speeds, and the median jumps from one cluster to the other
#: as the share of slow time in a run passes one half
LINEITEM_SCALES = (4, 5, 6, 7, 8, 9, 10, 11, 12)
XMARK_DOCS = 4
XMARK_QUERY_POOL = 12
#: XMark documents are drawn until one lands in this size band, so the
#: per-request work does not swing with the seed (the generator's sizes
#: cluster near 60, 120 and 180 KB at this scale).  60 KB, not 120 KB:
#: with 120 KB documents the service's capacity at the host's slow
#: phases is about 7 requests/s, and a fixed rate well below that
#: cannot collect the 100 samples a p90 needs within one run
XMARK_BAND = (56_000, 64_000)
DBLP_FEEDS = 1
DBLP_SCALE = 320          # about 1.5 MB of UTF-8 per feed
DBLP_QUERIES = 4
#: append sizes in characters, drawn uniformly: 4 KB on average, varied
#: for the reason the Lineitem documents are (an append takes about 2 ms,
#: far shorter than a phase of the host's speed)
STREAM_PIECE_CHARS = (1024, 7168)


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible generator per purpose."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def _oracle(text: str, queries: list[str]) -> dict[str, list[int]]:
    from repro.xmlstream.lexer import lex
    from repro.xpath.reference import build_document, evaluate_offsets

    doc = build_document(lex(text))
    return {q: evaluate_offsets(doc, q) for q in queries}


def oneshot_lineitem(seed: int) -> dict:
    from repro.datasets import LINEITEM, generate_query_set

    rng = rng_for(seed, "lineitem")
    queries = generate_query_set(LINEITEM, 4, seed=rng.randrange(1, 1 << 30))
    docs = [LINEITEM.generate(scale=scale, seed=rng.randrange(1 << 30))
            for scale in LINEITEM_SCALES]
    # the timed operations rotate through the documents in a seeded order
    order = list(range(len(docs)))
    rng.shuffle(order)
    return {
        "grammar": LINEITEM.dtd,
        "queries": queries,
        "docs": docs,
        "order": order,
        # set-up runs the scale-8 document, whatever the order
        "setup_doc": LINEITEM_SCALES.index(8),
        "expected": [_oracle(d, queries) for d in docs],
    }


def _zipf_weights(n: int, s: float = 1.5) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def _weighted_sample(rng: random.Random, items: list, weights: list[float],
                     k: int) -> list:
    items, weights = list(items), list(weights)
    out = []
    for _ in range(k):
        i = rng.choices(range(len(items)), weights=weights)[0]
        out.append(items.pop(i))
        weights.pop(i)
    return out


def service_xmark(seed: int) -> dict:
    from repro.datasets import XMARK, generate_query_set

    rng = rng_for(seed, "xmark")
    docs: list[str] = []
    while len(docs) < XMARK_DOCS:
        text = XMARK.generate(scale=20, seed=rng.randrange(1 << 30))
        if XMARK_BAND[0] <= len(text.encode("utf-8")) <= XMARK_BAND[1]:
            docs.append(text)
    # popularity follows the pool's order, a fixed ranking: which query
    # is hot changes the per-request cost, so only the draws are seeded
    pool = generate_query_set(XMARK, XMARK_QUERY_POOL)
    weights = _zipf_weights(len(pool))

    mix_rng = rng_for(seed, "xmark-mix")

    def request() -> tuple[int, tuple[str, ...]]:
        k = mix_rng.randint(1, 3)
        return (mix_rng.randrange(len(docs)),
                tuple(_weighted_sample(mix_rng, pool, weights, k)))

    # enough requests for any run length the harness allows; phases
    # consume them in order, so the mix is the same whatever the timing
    requests = [request() for _ in range(20_000)]
    return {
        "grammar": XMARK.dtd,
        "pool": pool,
        "docs": docs,
        "requests": requests,
        "arrival_seed": rng.randrange(1 << 30),
        "expected": [_oracle(d, pool) for d in docs],
    }


#: replacement text for DBLP character data: accented Latin, Greek, CJK
#: and one astral-plane character, so UTF-8 bytes and code points differ
_NON_ASCII = ("Müller", "Ñúñez", "Łukasiewicz", "Παπαδόπουλος", "東京大学",
              "Søren Kierkegård", "Dvořák", "𝔛-ray")
_TEXT_NODE = re.compile(r">([^<&]*[^<&\s][^<&]*)<")


def add_non_ascii(text: str, rng: random.Random) -> str:
    """Prefix half the character-data nodes after the DTD with non-ASCII.

    The generator has no knob for this; element structure (and so every
    query's answer set) is unchanged, while offsets shift because they
    count code points.
    """
    body = text.index("]>") + 2

    def repl(m: re.Match) -> str:
        if rng.random() < 0.5:
            return f">{rng.choice(_NON_ASCII)} {m.group(1)}<"
        return m.group(0)

    return text[:body] + _TEXT_NODE.sub(repl, text[body:])


def stream_dblp(seed: int) -> dict:
    from repro.datasets import DBLP, generate_query_set

    rng = rng_for(seed, "dblp")
    # child paths below the record elements (the first six of the pool
    # are root-level records with almost no matches); the set is fixed
    # and only its order follows the seed, because the seal cost depends
    # on the set and would otherwise swing from seed to seed
    queries = generate_query_set(DBLP, 12)[6:6 + DBLP_QUERIES]
    rng.shuffle(queries)
    feeds = [add_non_ascii(DBLP.generate(scale=DBLP_SCALE,
                                         seed=rng.randrange(1 << 30)), rng)
             for _ in range(DBLP_FEEDS)]
    pieces = []
    for feed in feeds:
        cuts = [0]
        while cuts[-1] < len(feed):
            cuts.append(cuts[-1] + rng.randint(*STREAM_PIECE_CHARS))
        pieces.append([feed[a:b] for a, b in zip(cuts, cuts[1:])])
    return {
        "grammar": DBLP.dtd,
        "queries": queries,
        "feeds": feeds,
        "pieces": pieces,
        # UTF-8 sizes for mb_per_s, counted here so no run times the count
        "piece_bytes": [[len(p.encode("utf-8")) for p in ps] for ps in pieces],
        "expected": [_oracle(f, queries) for f in feeds],
    }


INPUTS_FOR = {
    "oneshot-lineitem": oneshot_lineitem,
    "service-xmark": service_xmark,
    "stream-dblp": stream_dblp,
}
