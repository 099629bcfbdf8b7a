"""Journal integrity: CRC trailers, fsck accounting, reconciliation,
and write-fault containment (injected ``journal.torn`` /
``journal.enospc`` chaos followed by end-of-run repair)."""

import pytest

from repro.gpusim.campaign import (
    CampaignSpec,
    InjectionRecord,
    ParallelCampaign,
    _Journal,
    fsck_journal,
)
from repro.serve.chaos import ChaosEngine, ChaosPlan


def _spec(n=4):
    return CampaignSpec(benchmark="STC", num_injections=n)


def _records(n):
    return [
        InjectionRecord(
            index=i, surface="rf", outcome="masked", seed=100 + i
        )
        for i in range(n)
    ]


def _write(path, spec, records):
    journal = _Journal(str(path), spec, fresh=True)
    for record in records:
        journal.append(record)
    journal.close()
    return journal


# -- fsck accounting --------------------------------------------------------------


def test_clean_journal_fscks_complete(tmp_path):
    path = tmp_path / "clean.jsonl"
    _write(path, _spec(4), _records(4))
    fsck = fsck_journal(str(path))
    assert fsck.header is not None and fsck.header["version"] == 2
    assert fsck.record_lines == 4
    assert fsck.corrupt_lines == 0
    recon = fsck.reconcile()
    assert recon["complete"] is True
    assert recon["expected"] == 4 and recon["recorded"] == 4
    assert recon["missing"] == [] and recon["duplicates"] == []


def test_fsck_counts_duplicates_and_last_occurrence_wins(tmp_path):
    path = tmp_path / "dup.jsonl"
    records = _records(3)
    retry = InjectionRecord(
        index=1, surface="rf", outcome="sdc", seed=101
    )
    _write(path, _spec(3), records + [retry])
    fsck = fsck_journal(str(path))
    assert fsck.duplicate_indices == [1]
    assert fsck.records[1].outcome == "sdc"  # later supersedes earlier
    recon = fsck.reconcile()
    assert recon["complete"] is False
    assert recon["duplicates"] == [1]


def test_fsck_missing_journal_is_empty_not_fatal(tmp_path):
    fsck = fsck_journal(str(tmp_path / "absent.jsonl"))
    assert fsck.header is None and fsck.records == {}
    assert fsck.reconcile(expected=5)["missing"] == [0, 1, 2, 3, 4]


def test_fsck_to_dict_shape(tmp_path):
    path = tmp_path / "shape.jsonl"
    _write(path, _spec(2), _records(2))
    d = fsck_journal(str(path)).to_dict()
    assert d["kind"] == "journal_fsck"
    assert d["version"] == 2
    assert d["reconciliation"]["complete"] is True
    for key in ("total_lines", "record_lines", "corrupt_lines"):
        assert isinstance(d[key], int)


def test_resume_refuses_records_under_a_corrupt_header(tmp_path):
    """Records whose header fails its CRC have an unknown spec: resuming
    must refuse them like a foreign spec's, not adopt them."""
    path = tmp_path / "foreign.jsonl"
    seed1 = CampaignSpec(benchmark="STC", num_injections=4, seed=1)
    ParallelCampaign(seed1, journal_path=str(path)).run()
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n")
    flipped = "0" if header[-1] != "0" else "1"
    path.write_text(header[:-1] + flipped + "\n" + "".join(lines[1:]))

    fsck = fsck_journal(str(path))
    assert fsck.header is None and fsck.corrupt_lines == 1
    assert sorted(fsck.records) == [0, 1, 2, 3]
    for seed in (1, 2):
        spec = CampaignSpec(benchmark="STC", num_injections=4, seed=seed)
        with pytest.raises(ValueError, match="different campaign spec"):
            ParallelCampaign(spec, journal_path=str(path)).run(resume=True)


# -- write-fault containment ------------------------------------------------------


def test_enospc_chaos_drops_the_write_and_repair_restores_it(tmp_path):
    path = tmp_path / "enospc.jsonl"
    spec = _spec(3)
    records = _records(3)
    journal = _Journal(str(path), spec, fresh=True)
    plan = ChaosPlan.parse("journal.enospc:p=1.0:max=1", seed=3)
    with ChaosEngine(plan):
        ok = [journal.append(r) for r in records]
    assert ok == [False, True, True]  # first write hit ENOSPC
    assert journal.write_errors == 1

    fsck = fsck_journal(str(path))
    assert sorted(fsck.records) == [1, 2]
    assert fsck.corrupt_lines == 0  # ENOSPC is a clean hole, not a tear

    repaired = journal.repair(records)
    journal.close()
    assert repaired == 1
    fsck = fsck_journal(str(path))
    assert sorted(fsck.records) == [0, 1, 2]
    assert fsck.reconcile()["complete"] is True


def test_torn_chaos_leaves_one_corrupt_line_and_repair_restores(tmp_path):
    """A torn write leaves a half-line on disk; the *next* append must
    start on a fresh line (exactly one corrupt line, not two merged
    ones), and repair re-appends the lost record."""
    path = tmp_path / "torn.jsonl"
    spec = _spec(3)
    records = _records(3)
    journal = _Journal(str(path), spec, fresh=True)
    plan = ChaosPlan.parse("journal.torn:p=1.0:max=1", seed=5)
    with ChaosEngine(plan):
        ok = [journal.append(r) for r in records]
    assert ok == [False, True, True]
    assert journal.write_errors == 1

    fsck = fsck_journal(str(path))
    assert fsck.corrupt_lines == 1  # the fragment, and only it
    assert sorted(fsck.records) == [1, 2]

    repaired = journal.repair(records)
    journal.close()
    assert repaired == 1
    fsck = fsck_journal(str(path))
    assert fsck.reconcile()["complete"] is True
    assert fsck.corrupt_lines == 1  # the tear stays on disk, accounted


def test_repair_is_a_noop_on_a_complete_journal(tmp_path):
    path = tmp_path / "noop.jsonl"
    spec = _spec(2)
    records = _records(2)
    journal = _Journal(str(path), spec, fresh=True)
    for record in records:
        journal.append(record)
    assert journal.repair(records) == 0
    journal.close()


def test_resume_append_mode_keeps_existing_records(tmp_path):
    path = tmp_path / "resume.jsonl"
    spec = _spec(4)
    records = _records(4)
    _write(path, spec, records[:2])
    journal = _Journal(str(path), spec, fresh=False)
    for record in records[2:]:
        journal.append(record)
    journal.close()
    fsck = fsck_journal(str(path))
    assert sorted(fsck.records) == [0, 1, 2, 3]
    assert fsck.reconcile()["complete"] is True
