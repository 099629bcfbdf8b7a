"""Campaign-journal torn-write recovery, exhaustively.

A campaign killed mid-``append`` leaves the journal's final line
truncated at an arbitrary byte.  ``load_journal`` must drop exactly the
partial record (and only it), and an append-mode ``_Journal`` opened on
the torn file must terminate the fragment so resumed records do not
merge into it.  The main test truncates at *every* byte offset of the
final record.

Every line carries a ``\\t<crc32>`` trailer, so a torn fragment
survives at exactly one offset: the cut that drops only the trailing
newline (the CRC line is whole).  Every other prefix — including the
whole JSON payload cut at the tab, which has no checksum — fails the
checksum or the schema, and is re-run on resume.
"""

import json

from repro.gpusim.campaign import (
    CampaignSpec,
    InjectionRecord,
    ParallelCampaign,
    _crc_line,
    _Journal,
    _parse_journal_line,
    fsck_journal,
    load_journal,
)


def _spec(n=4):
    return CampaignSpec(benchmark="STC", num_injections=n)


def _records(n):
    return [
        InjectionRecord(
            index=i,
            surface="rf",
            outcome="masked" if i % 2 else "detected_recovered",
            detections=i,
            recoveries=i % 3,
            instructions=1000 + i,
            seed=100 + i,
            detail=f"répro-№{i}",
        )
        for i in range(n)
    ]


def _fragment_is_whole(fragment: bytes) -> bool:
    """Does this torn prefix still read back as a valid record line?"""
    line = fragment.decode("utf-8", errors="replace").strip()
    if not line:
        return False
    obj, status = _parse_journal_line(line)
    if obj is None:
        return False
    try:
        InjectionRecord(**obj)
    except TypeError:
        return False
    return True


def _write_journal(path, spec, records):
    journal = _Journal(str(path), spec, fresh=True)
    for record in records:
        assert journal.append(record)
    journal.close()


def test_truncation_at_every_byte_of_the_final_record(tmp_path):
    spec = _spec()
    records = _records(4)
    path = tmp_path / "journal.jsonl"
    _write_journal(path, spec, records)

    blob = path.read_bytes()
    payload = records[-1].to_json()
    final_line = _crc_line(payload).encode() + b"\n"
    assert blob.endswith(final_line)
    base = len(blob) - len(final_line)

    for cut in range(len(final_line)):
        torn = tmp_path / f"torn-{cut}.jsonl"
        torn.write_bytes(blob[: base + cut])
        header, loaded = load_journal(str(torn))
        assert header is not None and "spec" in header, cut
        # Exactly the complete records survive; the torn one is gone —
        # except at the offsets where the fragment is genuinely whole.
        fragment_is_whole = _fragment_is_whole(final_line[:cut])
        expected = [0, 1, 2, 3] if fragment_is_whole else [0, 1, 2]
        assert sorted(loaded) == expected, f"cut at byte {cut}"
        for i in (0, 1, 2):
            assert loaded[i] == records[i], f"cut at byte {cut}"
    # Sanity: the only whole-record offset is the newline-only
    # truncation, so the loop above really covered both branches.
    whole = [
        cut
        for cut in range(len(final_line))
        if _fragment_is_whole(final_line[:cut])
    ]
    assert whole == [len(final_line) - 1]


def test_crc_catches_bitrot_legacy_parsing_would_accept(tmp_path):
    """A line whose payload was altered after write still parses as
    record JSON; the CRC trailer rejects it."""
    spec = _spec(1)
    record = _records(1)[0]
    path = tmp_path / "rot.jsonl"
    _write_journal(path, spec, [record])

    blob = path.read_bytes()
    # Flip the record's seed digit inside the payload: still valid JSON,
    # still a valid InjectionRecord — only the checksum knows.
    rotted = blob.replace(b'"seed": 100', b'"seed": 900')
    assert rotted != blob
    path.write_bytes(rotted)
    header, loaded = load_journal(str(path))
    assert header is not None
    assert loaded == {}  # dropped as corrupt, not mis-loaded as seed=900


def test_append_resume_after_every_truncation_completes_the_set(tmp_path):
    """Opening the torn journal in append mode and re-running the
    missing index yields the full record set — the torn fragment never
    corrupts its successor."""
    spec = _spec()
    records = _records(4)
    path = tmp_path / "journal.jsonl"
    _write_journal(path, spec, records)
    blob = path.read_bytes()
    final_line = _crc_line(records[-1].to_json()).encode() + b"\n"
    base = len(blob) - len(final_line)

    # Every offset is cheap enough to run exhaustively here too.
    for cut in range(len(final_line)):
        torn = tmp_path / f"resume-{cut}.jsonl"
        torn.write_bytes(blob[: base + cut])
        _, loaded = load_journal(str(torn))
        missing = [r for r in records if r.index not in loaded]
        journal = _Journal(str(torn), spec, fresh=False)
        for record in missing:
            journal.append(record)
        journal.close()
        header, completed = load_journal(str(torn))
        assert header is not None, cut
        assert sorted(completed) == [0, 1, 2, 3], f"cut at byte {cut}"
        for record in records:
            assert completed[record.index] == record, f"cut at byte {cut}"


def test_garbage_lines_are_skipped_not_fatal(tmp_path):
    """Non-object JSON, binary noise, wrong shapes and CRC-less lines are
    all skipped: recovery never throws on journal content."""
    path = tmp_path / "garbage.jsonl"
    good = _records(2)
    lines = [
        _crc_line(json.dumps({"spec": _spec().to_dict(), "version": 2})),
        _crc_line("12345"),  # parses, but is not a record object
        _crc_line('"just a string"'),
        good[0].to_json(),  # whole record JSON, but no trailer
        _crc_line("{\"index\": 9, \"unknown_field\": true}"),  # shape
        "\xff\xfe binary noise",
        _crc_line(good[1].to_json()),
    ]
    path.write_text("\n".join(lines) + "\n", errors="replace")
    fsck = fsck_journal(str(path))
    assert fsck.header is not None
    assert sorted(fsck.records) == [1]
    assert fsck.corrupt_lines == 5


def test_first_line_non_dict_is_not_a_header_crash(tmp_path):
    """A journal whose first line tore down to a bare JSON scalar used
    to raise TypeError on the header check; it must load as empty."""
    path = tmp_path / "scalar-head.jsonl"
    path.write_text(
        _crc_line("7") + "\n" + _crc_line(_records(1)[0].to_json()) + "\n"
    )
    header, loaded = load_journal(str(path))
    assert header is None
    assert sorted(loaded) == [0]


def test_crc_less_record_line_is_corrupt_and_rerun_on_resume(tmp_path):
    """A record line without its trailer has no checksum to trust: fsck
    counts it corrupt, and ``--resume`` re-runs its index to the record
    an uninterrupted campaign writes."""
    spec = CampaignSpec(benchmark="STC", num_injections=4, seed=3)
    path = tmp_path / "journal.jsonl"
    clean = ParallelCampaign(spec, journal_path=str(path)).run()
    lines = path.read_text().splitlines()
    payload, _, _ = lines[2].rpartition("\t")
    stripped = json.loads(payload)["index"]
    lines[2] = payload
    path.write_text("\n".join(lines) + "\n")

    fsck = fsck_journal(str(path))
    assert fsck.corrupt_lines == 1
    assert stripped not in fsck.records and len(fsck.records) == 3
    resumed = ParallelCampaign(spec, journal_path=str(path)).run(resume=True)
    assert resumed.records == clean.records
    assert fsck_journal(str(path)).reconcile()["complete"] is True
