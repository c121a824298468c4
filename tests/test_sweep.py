"""Byte identity of the CLI on the swept corpus ``golden/sweep.json``.

Each case stores an exit code and the byte length and SHA-256 of its
stdout, not the output itself (see ``sweep.py``).  A changed case fails
with its argv; ``python tests/sweep.py diff REV`` reruns the changed cases
at a git revision and prints each one's first differing line.
"""

import sweep

CORPUS = sweep.load()


def test_the_corpus_is_the_generators():
    """The stored cases are the seeded generator's, in its order; perfbench's
    cli corpus follows them."""
    made = sweep.cases(perfbench=False)
    assert [case[:2] for case in CORPUS[:len(made)]] == made
    assert len(CORPUS) >= 1500


def test_cli_output_is_unchanged(monkeypatch):
    monkeypatch.delenv("HJTORIC_LOG", raising=False)
    changed = [(argv, stdin, want, got) for argv, stdin, *want in CORPUS
               if (got := sweep.digest(*sweep.run(argv, stdin))) != want]
    assert not changed, (
        f"{len(changed)} of {len(CORPUS)} cases changed; the first: "
        + "; ".join(f"{' '.join(argv)} (stdin {(stdin or '')[:60]!r}): exit, bytes, sha256 "
                    f"{want} -> {got}" for argv, stdin, want, got in changed[:3])
        + "; run `PYTHONPATH=src python tests/sweep.py diff HEAD` for the differing lines")
