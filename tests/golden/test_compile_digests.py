"""The benchmark's compile configurations still produce the committed
kernels and stats.  ``compile_digests.py`` explains the digests and is
the only way to regenerate them."""

from tests.golden.compile_digests import compute_digests, diff, load_golden


def test_compile_digests_match_golden():
    changes = diff(load_golden(), compute_digests())
    assert not changes, (
        "compiled output differs from tests/golden/compile_digests.json "
        "(if intended, run `python tests/golden/compile_digests.py "
        "--update`):\n" + "\n".join(changes)
    )
