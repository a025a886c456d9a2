"""The golden parse corpus: every SQL text the repository holds parses to the
same AST, spans included, or fails with the same error, as when the corpus
was written (``tests/parse_corpus.py`` says how, and how to regenerate it)."""

from __future__ import annotations

from tests import parse_corpus


def test_the_corpus_covers_the_repository():
    corpus = parse_corpus.load()
    assert len(corpus) > 3900
    parsed = sum(parse_corpus.outcome(text)[0][0] == "ok" for text in corpus)
    assert parsed > 1500


def test_every_text_parses_as_the_corpus_recorded():
    changed = [
        text
        for text, expected in parse_corpus.load().items()
        if parse_corpus.digest(text) != expected
    ]
    assert not changed, f"{len(changed)} texts parse differently, e.g. {changed[:3]}"
