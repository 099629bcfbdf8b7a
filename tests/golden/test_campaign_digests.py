"""Fault campaigns still produce the committed records, and the scalar
backend's equal the vector backend's.  ``campaign_digests.py`` explains
the digests and is the only way to regenerate them."""

from tests.golden.campaign_digests import (
    backend_mismatches,
    compute_digests,
    diff,
    load_golden,
)


def test_campaign_digests_match_golden():
    new = compute_digests()
    changes = diff(load_golden(), new) + backend_mismatches(new)
    assert not changes, (
        "campaign records differ from tests/golden/campaign_digests.json "
        "(if intended, run `python tests/golden/campaign_digests.py "
        "--update`):\n" + "\n".join(changes)
    )
