import pytest

from rsskit.cli import main
from rsskit.core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from rsskit.dynamics import integrate, worst_case_pov
from rsskit.errors import ConfigError, DomainError, TrajectoryFormatError
from rsskit.report import dump_report, make_report
from rsskit.trajio import HEADER, read_trajectory, write_metric_csv, write_trajectory

from conftest import state

PAPER = RssParams(0.3, 2.0, 4.0, 8.0)


def small_traj():
    return Trajectory(
        (
            TrajectorySample(0.0, ScenarioState(40.0, 20.0, 0.0, 20.0), 0.5, AC),
            TrajectorySample(0.1, ScenarioState(41.9, 18.0, 2.0, 20.0), -1.0, BC),
        ),
        PAPER,
    )


def test_round_trip(tmp_path):
    path = tmp_path / "traj.csv"
    orig = small_traj()
    write_trajectory(orig, path)
    back = read_trajectory(path, PAPER)
    assert len(back) == len(orig)
    for a, b in zip(orig.samples, back.samples):
        assert a.t == b.t
        assert a.state == b.state
        assert a.a_r == b.a_r
        assert a.mode == b.mode


def test_round_trip_preserves_9_digits(tmp_path):
    path = tmp_path / "traj.csv"
    worst_sv = lambda t, s: PAPER.a_max if t < PAPER.rho else -PAPER.a_brake_min
    trace = integrate(PAPER, state(34.136, 20.0, 20.0), worst_sv, worst_case_pov(PAPER), 0.01, 5.5)
    write_trajectory(trace.to_trajectory(), path)
    back = read_trajectory(path, PAPER)
    for a, b in zip(trace.samples, back.samples):
        assert b.state.gap == pytest.approx(a.state.gap, abs=1e-6)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# a comment\n\n"
        f"{HEADER}\n"
        "0,40,20,0,20,0.5,AC\n"
        "# mid-file note\n"
        "0.1,41,19,2,20,-4,BC\n"
    )
    assert len(read_trajectory(path, PAPER)) == 2


@pytest.mark.parametrize(
    "body",
    [
        "t,x_f\n0,40\n",                                 # bad header
        f"{HEADER}\n0,40,20,0,20\n",                     # missing fields
        f"{HEADER}\n0,40,nan,0,20,0,AC\n",               # non-finite
        f"{HEADER}\n0,40,-1,0,20,0,AC\n",                # negative velocity
        f"{HEADER}\n0,40,20,0,20,0,XX\n",                # unknown mode
        f"{HEADER}\n0,40,20,0,20,0,AC\n0,41,20,0,20,0,AC\n",  # t not increasing
        f"{HEADER}\n",                                   # no samples
        "",                                              # empty file
    ],
)
def test_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TrajectoryFormatError):
        read_trajectory(path, PAPER)


# (rows after the header, the error's text after "<path>:") for one bad row
# among good ones, comment and blank lines counted in the line number
ROW_ERRORS = [
    ("0.1,41,19,2,20,-4", "3: expected 7 fields, got 6"),
    ("0.1,41,19,2,20,-4,BC,1", "3: expected 7 fields, got 8"),
    ("0.1,41,19,2,20", "3: expected 7 fields, got 5"),
    ("0.1,41,nan,2,20,-4,BC", "3: non-finite value nan"),
    ("0.1,41,19,2,20,inf,BC", "3: non-finite value inf"),
    ("0.1,41,19,-inf,20,-4,BC", "3: non-finite value -inf"),
    ("0.1,41,19,2,-20,-4,BC", "3: negative velocity"),
    ("0.1,41,19,2,20,-4,XX", "3: unknown mode 'XX'"),
    ("0.1,41,19,2,20,-4,", "3: unknown mode ''"),
    ("0.1,41,19,2,20,-4,bc", "3: unknown mode 'bc'"),
    ("0.1,4x,19,2,20,-4,BC", "3: could not convert string to float: '4x'"),
    ("0,41,19,2,20,-4,BC", "3: timestamps must be strictly increasing"),
    ("-0.5,41,19,2,20,-4,BC", "3: timestamps must be strictly increasing"),
    ("# note\n\n  \n0,41,19,2,20,-4,BC", "6: timestamps must be strictly increasing"),
    ("#,1,2\n0.1,41,nan,2,20,-4,AC", "4: non-finite value nan"),
]


@pytest.mark.parametrize("rows, message", ROW_ERRORS)
def test_each_row_fault_has_its_message(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n0,40,20,0,20,0.5,AC\n{rows}\n0.2,43,18,4,20,-4,BC\n")
    with pytest.raises(TrajectoryFormatError) as exc:
        read_trajectory(path, PAPER)
    assert str(exc.value) == f"{path}:{message}"


@pytest.mark.parametrize("body, message", [
    ("", ": missing header"),
    ("# only a comment\n\n", ": missing header"),
    ("\n# first\n0,40,20,0,20,0.5,AC\n", f":3: expected header {HEADER!r}, got '0,40,20,0,20,0.5,AC'"),
    (f"{HEADER.upper()}\n", f":1: expected header {HEADER!r}, got {HEADER.upper()!r}"),
    (f"# a note\n{HEADER}\n\n", ": no samples"),
])
def test_header_faults_have_their_messages(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TrajectoryFormatError) as exc:
        read_trajectory(path, PAPER)
    assert str(exc.value) == f"{path}{message}"


def test_mode_and_fields_are_read_stripped(tmp_path):
    # the row is stripped as a whole and the mode on its own, so a padded
    # mode and padded numbers are read as written without the padding
    path = tmp_path / "t.csv"
    path.write_text(f"  {HEADER}  \n0,40,20,0,20,0.5, AC\n 0.1 ,41,19,2,20,-4, BC \n")
    back = read_trajectory(path, PAPER)
    assert [s.mode for s in back.samples] == [AC, BC]
    assert back.samples[1] == (0.1, (41.0, 19.0, 2.0, 20.0), -4.0, BC)


_ROW = ["0.1", "41", "19", "2", "20", "-4"]


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999", "-1e999", "Infinity", "nan"])
@pytest.mark.parametrize("column", range(6))
def test_rejects_non_finite_field(tmp_path, column, value):
    fields = list(_ROW)
    fields[column] = value
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n0,40,20,0,20,0.5,AC\n" + ",".join(fields) + ",BC\n")
    with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:3: non-finite"):
        read_trajectory(path, PAPER)


def test_equal_timestamps_are_refused(tmp_path):
    # the reader checks the order itself and builds the Trajectory unchecked
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n0.1,40,20,0,20,0.5,AC\n0.1,41,19,2,20,-4,BC\n")
    with pytest.raises(TrajectoryFormatError,
                       match=r"bad\.csv:3: timestamps must be strictly increasing"):
        read_trajectory(path, PAPER)
    first = small_traj().samples[0]
    with pytest.raises(DomainError, match="strictly increasing"):
        Trajectory((first, first), PAPER)


@pytest.mark.parametrize("column", [0, 5])
def test_audit_of_non_finite_file_is_usage_error(tmp_path, capsys, column):
    params = tmp_path / "params.json"
    params.write_text('{"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}')
    fields = list(_ROW)
    fields[column] = "1e999"
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n0,40,20,0,20,0.5,AC\n" + ",".join(fields) + ",BC\n")
    rc = main(["audit", "--params", str(params), "--trajectory", str(path),
               "--out", str(tmp_path / "audit.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "bad.csv:3: non-finite" in err
    assert not (tmp_path / "audit.json").exists()


def test_metric_csv(tmp_path):
    path = tmp_path / "metric.csv"
    write_metric_csv(small_traj(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,margin,gap,v_r,v_f"
    assert len(lines) == 3


@pytest.mark.parametrize("margins", [[1.0], [1.0, 2.0, 3.0]])
def test_metric_csv_refuses_a_margin_count_other_than_the_samples(tmp_path, margins):
    path = tmp_path / "metric.csv"
    with pytest.raises(ConfigError, match=f"got {len(margins)} margins for 2 samples"):
        write_metric_csv(small_traj(), path, margins)
    assert not path.exists()


def test_report_hash_excludes_timestamp():
    rep1 = make_report("verify", PAPER, {"seed": 1}, {"trials": 2})
    rep2 = make_report("verify", PAPER, {"seed": 1}, {"trials": 2})
    assert rep1["config_hash"] == rep2["config_hash"]
    d1, d2 = dict(rep1), dict(rep2)
    d1.pop("generated_at"), d2.pop("generated_at")
    assert dump_report(d1) == dump_report(d2)


def test_report_hash_sensitive_to_content():
    rep1 = make_report("verify", PAPER, {"seed": 1}, {"trials": 2})
    rep2 = make_report("verify", PAPER, {"seed": 2}, {"trials": 2})
    assert rep1["config_hash"] != rep2["config_hash"]
