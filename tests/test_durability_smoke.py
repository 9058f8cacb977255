"""The SIGKILL smoke drill as a pytest (``make durability-smoke``).

Real process death, no simulation: a subprocess service takes a write
storm of scalar reports and ``apply_batch`` groups, is SIGKILLed
mid-write, and a fresh service recovered from the
same directory must hold every acknowledged update, and at least one
shard must have installed a checkpoint before the kill (the drill
reads each ``MANIFEST`` first), so the drill tests checkpoint plus
log, not the log alone.  The in-process
crash matrix (``test_wal_durability.py``) covers the boundary cases;
this is the end-to-end proof that the pieces compose against a real
kernel and file system.
"""

import re

import pytest

from repro.storage.crashdrill import run_drill

pytestmark = [pytest.mark.durability, pytest.mark.slow]


@pytest.mark.parametrize("fsync", ["always", "batch:32"])
def test_sigkill_drill_loses_no_acknowledged_update(tmp_path, fsync,
                                                     capsys):
    """The storm alternates scalar reports with ``apply_batch`` groups,
    so the kill can land in a grouped log append as well as a single
    one;
    ``batch:32`` leaves scalar writes unsynced, which a SIGKILL (page
    cache intact) must still not lose."""
    status = run_drill(
        directory=str(tmp_path),
        fsync=fsync,
        shards=2,
        objects=30,
        kill_after_acks=150,
        seed=42,
        timeout_s=120.0,
    )
    assert status == 0
    installed = re.findall(r"manifest_seq=(\d+) replayed=(\d+)",
                           capsys.readouterr().out)
    assert len(installed) == 2 and any(int(seq) for seq, _ in installed)
    # The drill leaves the recovered directory behind for inspection.
    assert (tmp_path / "shard-00" / "MANIFEST").exists()


def test_drill_parses_its_own_transcript():
    from repro.storage.crashdrill import _parse_lines

    tried, acked = _parse_lines([
        "TRY 3 1.5 0.25 1.0\n",
        "ACK 3 1.0\n",
        "TRY 3 2.5 -0.25 2.0\n",   # announced, never acknowledged
        "noise line\n",
    ])
    assert tried == {3: {1.0: (1.5, 0.25), 2.0: (2.5, -0.25)}}
    assert acked == {3: 1.0}
