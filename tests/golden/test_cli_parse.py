"""The ``penny`` command line still parses every pinned argv the way it
did.  ``cli_parse.py`` explains the golden and is the only way to
regenerate it."""

from tests.golden.cli_parse import compute, diff, load_golden


def test_cli_parse_matches_golden():
    changes = diff(load_golden(), compute())
    assert not changes, (
        "command-line parsing differs from tests/golden/cli_parse.json "
        "(if intended, run `python tests/golden/cli_parse.py --update`):\n"
        + "\n".join(changes)
    )
