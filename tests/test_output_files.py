"""Every output file is overwritten in place and cut to its new length.

The trajectory CSV, the metric CSV and each --out report go through
core.write_text, which opens the path without O_TRUNC: on ext4 a file
truncated to 0 is written back to the disk when it is closed, so a
truncating overwrite waits for the old file's bytes.  The file must still end
up holding exactly what open(path, "w") would have left: the new bytes and
no old tail, the permission bits of an existing file, a symlink written
through, a pipe fed without being cut, and after a write that raises part
way, only the bytes written.
"""
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rsskit
from rsskit.cli import main
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.trajio import write_metric_csv, write_trajectory

SRC = str(Path(rsskit.__file__).resolve().parent.parent)
PAPER = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}
TRAJ = Trajectory(
    tuple(TrajectorySample(0.1 * i, ScenarioState(45.0 - i, 20.0, 0.0, 20.0), *(
        (0.0, AC) if i < 5 else (-4.0, BC))) for i in range(10)),
    RssParams(**PAPER),
)
CLI_WRITERS = ("audit", "verify")
WRITERS = ("trajectory", "metric") + CLI_WRITERS


@pytest.fixture
def write(tmp_path):
    """write(name, path) runs the named writer into path; a CLI writer
    returns its exit code."""
    (tmp_path / "params.json").write_text(json.dumps(PAPER))
    (tmp_path / "campaign.json").write_text(json.dumps({"seed": 3, "n_trials": 10}))
    write_trajectory(TRAJ, tmp_path / "t.csv")
    common = ["--params", str(tmp_path / "params.json")]
    argv = {
        "audit": ["audit", *common, "--trajectory", str(tmp_path / "t.csv")],
        "verify": ["verify", *common, "--campaign", str(tmp_path / "campaign.json")],
    }

    def run(name, path):
        if name == "trajectory":
            return write_trajectory(TRAJ, path)
        if name == "metric":
            return write_metric_csv(TRAJ, path)
        return main(argv[name] + ["--out", str(path)])

    return run


def _text(data: bytes) -> bytes:
    """The bytes without a report's generation time, the one line that
    differs between two runs."""
    return b"".join(line for line in data.splitlines(True) if b'"generated_at"' not in line)


def _fresh(write, name, tmp_path) -> bytes:
    path = tmp_path / f"fresh-{name}"
    assert write(name, path) in (None, 0)
    return path.read_bytes()


@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("old_size", [10, 100_000])
def test_an_overwritten_file_holds_exactly_the_new_bytes(write, tmp_path, name, old_size):
    want = _fresh(write, name, tmp_path)
    path = tmp_path / "out"
    path.write_bytes(b"#" * old_size)
    assert write(name, path) in (None, 0)
    assert _text(path.read_bytes()) == _text(want)


@pytest.mark.parametrize("name", WRITERS)
def test_permission_bits_are_kept_and_a_new_file_gets_the_mode_open_gives(write, tmp_path, name):
    path = tmp_path / "out"
    path.write_bytes(b"#" * 100_000)
    path.chmod(0o604)
    assert write(name, path) in (None, 0)
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    new, plain = tmp_path / "new", tmp_path / "plain"
    assert write(name, new) in (None, 0)
    open(plain, "w").close()
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.parametrize("name", WRITERS)
def test_a_symlink_is_written_through_and_stays_a_symlink(write, tmp_path, name):
    want = _fresh(write, name, tmp_path)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"#" * 100_000)
    link.symlink_to(target)
    assert write(name, link) in (None, 0)
    assert link.is_symlink()
    assert _text(target.read_bytes()) == _text(want)


@pytest.mark.parametrize("name", WRITERS)
def test_a_pipe_gets_the_exact_bytes(write, tmp_path, name):
    want = _fresh(write, name, tmp_path)
    r, w = os.pipe()
    chunks = []

    def drain():
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert write(name, f"/dev/fd/{w}") in (None, 0)
    finally:
        os.close(w)
        reader.join(timeout=30)
        os.close(r)
    assert not reader.is_alive()
    assert _text(b"".join(chunks)) == _text(want)


@pytest.mark.parametrize("name", WRITERS)
def test_a_write_that_raises_part_way_leaves_only_the_bytes_written(
        write, tmp_path, monkeypatch, name):
    want = _fresh(write, name, tmp_path)
    assert b'"generated_at"' not in want[:128]  # the cut's bytes are the same every run
    path = tmp_path / "out"
    path.write_bytes(b"#" * 100_000)
    real_write, calls = os.write, []

    def failing_write(fd, data):
        """64 bytes a call to the output file, then a full disk."""
        if not os.path.samestat(os.fstat(fd), os.stat(path)):
            return real_write(fd, data)
        calls.append(fd)
        if len(calls) > 2:
            raise OSError(28, "No space left on device")
        return real_write(fd, bytes(data[:64]))

    monkeypatch.setattr(os, "write", failing_write)
    if name in CLI_WRITERS:
        assert write(name, path) == 2
    else:
        with pytest.raises(OSError, match="No space left"):
            write(name, path)
    assert path.read_bytes() == want[:128]


CHILD = """
import json, os, sys
outputs = set(sys.argv[3:])
truncated = []

def record(event, args):
    if event == "open" and args[2] & os.O_TRUNC and os.path.basename(str(args[0])) in outputs:
        truncated.append(os.path.basename(str(args[0])))

sys.addaudithook(record)
sys.path.insert(0, sys.argv[1])
from rsskit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2]) for _ in range(2)]
print(json.dumps([codes, truncated]))
"""


def test_no_output_file_is_opened_with_o_trunc(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(PAPER))
    (tmp_path / "campaign.json").write_text(json.dumps({"seed": 3, "n_trials": 10}))
    common = ["--params", "params.json"]
    commands = [
        ["simulate", *common, "--gap", "60", "--v-r", "20", "--v-f", "20", "--out", "t.csv"],
        ["audit", *common, "--trajectory", "t.csv", "--out", "audit.json",
         "--metric-csv", "m.csv"],
        ["verify", *common, "--campaign", "campaign.json", "--out", "verify.json"],
        ["falsify", *common, "--campaign", "campaign.json", "--out", "falsify.json"],
    ]
    outputs = ["t.csv", "audit.json", "m.csv", "verify.json", "falsify.json"]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, json.dumps(commands), *outputs],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    codes, truncated = json.loads(child.stdout.splitlines()[-1])
    assert codes == [0] * 8
    assert truncated == []
    assert all((tmp_path / name).stat().st_size > 0 for name in outputs)
