import contextlib
import io
import itertools
import json
import math
import shutil
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborflow.cli import _COMMANDS, main
from gaborflow.config import _FIELDS, ConfigError, ScenarioConfig
from gaborflow.frame import FRAME_THRESHOLD

SMALL_CONFIG = {
    "grid": {"N": 64, "L": 12.0},
    "lattice": {"alpha": 1.0, "beta": 1.0, "box": [[-2.5, 2.5], [-2.5, 2.5]]},
    "ellipsoid": {"M": [[1.0, 0.0], [0.0, 1.0]], "E": 0.5},
    "deformation": {"t_values": [0.0, 0.3]},
    "flow": {"z0": [0.5, 0.0], "t": 0.5, "dt_max": 1e-2, "eps": 0.25},
    "covariance": {"cases": [[0.0, 0.5, 0.0], [0.4, 0.5, 0.5]], "grids": [32, 64]},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


@pytest.fixture(scope="module")
def shared_config(tmp_path_factory):
    """SMALL_CONFIG for tests that run many examples on one file."""
    path = tmp_path_factory.mktemp("shared") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestScenarioConfig:
    def test_defaults_build(self):
        cfg = ScenarioConfig()
        g = cfg.build_grid()
        assert g.N == 128
        assert cfg.build_window(g) is not None
        assert len(cfg.build_lattice()) == 289
        assert cfg.build_ellipsoid().E == 0.5

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            ScenarioConfig.from_dict({"grids": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ScenarioConfig.from_dict({"grid": {"NN": 64}})

    def test_overrides(self):
        cfg = ScenarioConfig()
        cfg.apply_overrides(["grid.N=256", "ellipsoid.E=[0.5,1.0]"])
        assert cfg.build_grid().N == 256
        assert cfg.ellipsoid.E == [0.5, 1.0]

    def test_bad_override_path(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError, match="section.key"):
            cfg.apply_overrides(["N=256"])
        with pytest.raises(ConfigError, match="unknown key"):
            cfg.apply_overrides(["grid.NN=256"])

    def test_invalid_window_gamma(self):
        # rejected at load, before any window is built
        with pytest.raises(ConfigError, match="window.gamma"):
            ScenarioConfig.from_dict({"window": {"gamma": [1.0, -1.0]}})

    def test_window_file_round_trip(self, tmp_path):
        from gaborflow.quantum import gaussian_window, save_state

        cfg = ScenarioConfig()
        g = cfg.build_grid()
        phi = gaussian_window(2j, g)
        path = tmp_path / "window.bin"
        save_state(path, phi, g)
        cfg.window.file = str(path)
        loaded = cfg.build_window(g)
        assert np.max(np.abs(loaded.values - phi.values)) <= 1e-15


EMPTY_BOX = "lattice.box=[[1.5,1.8],[1.5,1.8]]"
# 1 followed by 400 zeros: a JSON integer that float() cannot hold
HUGE = "1" + "0" * 400

FIELDS = [f"{section}.{key}" for section, keys in _FIELDS.items() for key in keys]
# JSON values that no field accepts as a number: strings, booleans, null,
# objects, NaN, +-inf, integers too large for a float (309 to 400 digits),
# and nonempty lists of these.  No finite number is drawn, so no value that
# a field accepts can size up a run.
_TOO_LARGE = st.integers(min_value=2 ** 1024, max_value=10 ** 400 - 1)
_SCALARS = st.one_of(
    st.text(alphabet=string.ascii_letters, max_size=5),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    _TOO_LARGE,
    _TOO_LARGE.map(lambda n: -n),
)
MALFORMED = st.recursive(
    st.one_of(_SCALARS, st.dictionaries(st.text(alphabet=string.ascii_letters, max_size=3),
                                        _SCALARS, min_size=1, max_size=1)),
    lambda inner: st.lists(inner, min_size=1, max_size=3),
    max_leaves=8,
)


def run_cli(args):
    return main([a for a in args if a])


class TestCliCommands:
    def test_bounds(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["bounds", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp"])
        assert code == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "A,B,is_frame,num_points,N"
        assert len(lines) == 2

    def test_bounds_default_config_pinned_values(self, tmp_path):
        # first-run values of the built-in scenario, pinned as a regression
        out = tmp_path / "out"
        assert run_cli(["bounds", "--out", str(out), "--no-timestamp"]) == 0
        cells = (out / "bounds.csv").read_text().splitlines()[1].split(",")
        assert float(cells[0]) == pytest.approx(0.84879010471670402, rel=1e-6)
        assert float(cells[1]) == pytest.approx(4.8811361146668784, rel=1e-6)
        assert cells[2] == "true"

    def test_bounds_singleton_lattice_not_a_frame(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["bounds", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp",
                        "--override", "lattice.box=[[-0.1,0.1],[-0.1,0.1]]"])
        assert code == 0
        cells = (out / "bounds.csv").read_text().splitlines()[1].split(",")
        assert cells[2] == "false"
        assert cells[3] == "1"

    def test_count_matches_known_values(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["count", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp", "--override", "ellipsoid.E=[0.5,1.125,2.0]"])
        assert code == 0
        rows = (out / "count.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == [5, 9, 13]

    def test_count_equals_deform_moved_on_default_scenario(self, tmp_path):
        # alpha = 2^-1/2: H <= E reads a^2 + b^2 <= 4E, so 9 points at E = 0.5
        # and 13 at E = 1.0, surface points included
        out = tmp_path / "out"
        energies = ["--override", "ellipsoid.E=[0.5,1.0]"]
        assert run_cli(["count", "--out", str(out), "--no-timestamp", *energies]) == 0
        assert run_cli(["deform", "--out", str(out), "--no-timestamp", *energies,
                        "--override", "deformation.t_values=[0.0]"]) == 0
        counts = [int(r.split(",")[1])
                  for r in (out / "count.csv").read_text().splitlines()[1:]]
        moved = [int(r.split(",")[3])
                 for r in (out / "deform.csv").read_text().splitlines()[1:]]
        assert counts == moved == [9, 13]

    def test_epsilon_prints_value(self, small_config, tmp_path, capsys):
        code = run_cli(["epsilon", "--config", str(small_config), "--out", str(tmp_path),
                        "--no-timestamp"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    def test_epsilon_writes_one_row_per_energy(self, small_config, tmp_path, capsys):
        def run(energies):
            out = tmp_path / "_".join(map(str, energies))
            code = run_cli(["epsilon", "--config", str(small_config), "--out", str(out),
                            "--no-timestamp", "--override", f"ellipsoid.E={json.dumps(energies)}"])
            assert code == 0
            lines = (out / "epsilon.csv").read_text().splitlines()
            return lines, capsys.readouterr().out.splitlines()

        lines, printed = run([0.5, 2.0])
        singles = [run([E]) for E in (0.5, 2.0)]
        assert all(len(one) == 2 and len(out) == 1 for one, out in singles)
        # each energy's row and value as a run on that energy alone gives them, bitwise
        assert lines == ["E,eps_star"] + [one[1] for one, _ in singles]
        assert printed == [out[0] for _, out in singles]
        assert lines[1] != lines[2]

    def test_deform_zero_row(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["deform", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp", "--override", "deformation.t_values=[0.0]"])
        assert code == 0
        lines = (out / "deform.csv").read_text().splitlines()
        assert lines[0] == "t,E,eps,moved,A,B,A_prime,B_prime,rel_dA,rel_dB"
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[-1] == "0" and cells[-2] == "0"

    def test_deform_all_enclosing_small_drift(self, tmp_path):
        # the resolved all-enclosing scenario: every point moves, bounds drift
        # stays below 5e-3 (here far below)
        out = tmp_path / "out"
        code = run_cli([
            "deform", "--out", str(out), "--no-timestamp",
            "--override", "grid.N=512", "--override", "grid.L=30.0",
            "--override", "ellipsoid.E=40.0",
            "--override", f"deformation.t_values=[{math.pi / 4}]",
        ])
        assert code == 0
        cells = (out / "deform.csv").read_text().splitlines()[1].split(",")
        assert int(cells[3]) == 289
        assert float(cells[8]) <= 5e-3 and float(cells[9]) <= 5e-3

    def test_covariance_default_scenario_small_defects(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["covariance", "--out", str(out), "--no-timestamp"]) == 0
        rows = (out / "covariance.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[3]) <= 1e-3 for r in rows)

    def test_deform_nothing_enclosed(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "deform", "--config", str(small_config), "--out", str(out), "--no-timestamp",
            "--override", 'lattice.box=[[0.5,3.5],[0.5,3.5]]',
            "--override", "ellipsoid.E=0.05",
        ])
        assert code == 0
        for line in (out / "deform.csv").read_text().splitlines()[1:]:
            assert line.split(",")[3] == "0"

    def test_flow_exterior_constant_rows(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["flow", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp", "--override", "flow.z0=[3.0,3.0]"])
        assert code == 0
        lines = (out / "flow.csv").read_text().splitlines()
        body = {tuple(l.split(",")[1:]) for l in lines[1:]}
        assert body == {("3", "3", "0")}

    def test_flow_interior_rotation(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["flow", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp",
                        "--override", f"flow.t={math.pi / 2}",
                        "--override", "flow.dt_max=0.001"])
        assert code == 0
        last = (out / "flow.csv").read_text().splitlines()[-1].split(",")
        assert abs(float(last[1]) - 0.0) <= 1e-6
        assert abs(float(last[2]) + 0.5) <= 1e-6
        # H_eps column stays at the initial energy
        assert abs(float(last[3]) - 0.125) <= 1e-6

    def test_flow_surface_start_conserves_energy_column(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["flow", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp",
                        "--override", "flow.z0=[1.0,0.0]",
                        "--override", "flow.t=0.5"])
        assert code == 0
        rows = (out / "flow.csv").read_text().splitlines()[1:]
        hvals = [float(r.split(",")[3]) for r in rows]
        assert all(abs(h - 0.5) <= 1e-6 for h in hvals)

    def test_epsilon_empty_lattice_returns_cap(self, small_config, tmp_path, capsys):
        with pytest.warns(UserWarning, match="no lattice points"):
            code = run_cli(["epsilon", "--config", str(small_config),
                            "--override", "lattice.box=[[1.2,1.8],[1.2,1.8]]"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_epsilon_only_surface_points_returns_cap(self, small_config, tmp_path, capsys):
        code = run_cli(["epsilon", "--config", str(small_config),
                        "--override", "lattice.box=[[0.9,1.1],[-0.1,0.1]]"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_covariance_ratio_column(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["covariance", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp"])
        assert code == 0
        lines = (out / "covariance.csv").read_text().splitlines()
        assert lines[0] == "t,q,p,defect_N32,defect_N64,ratio"
        first = lines[1].split(",")
        assert float(first[3]) <= 1e-9  # t = 0 case

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["bounds", "--config", str(bad)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"bogus": 1}}))
        assert run_cli(["bounds", "--config", str(bad)]) == 2

    # build_grid is a method of the config, not a section
    @pytest.mark.parametrize("item", ["nosuch.k=1", "build_grid.x=1"])
    def test_unknown_override_section_exits_2(self, item, capsys):
        assert run_cli(["count", "--override", item]) == 2
        assert "unknown config sections" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ellipsoid": {"E": -1.0}}))
        assert run_cli(["count", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_covariance_rejects_indefinite_M(self, small_config, tmp_path, capsys):
        code = run_cli(["covariance", "--config", str(small_config), "--out", str(tmp_path),
                        "--override", "ellipsoid.M=[[1,0],[0,-1]]"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_matrix_exits_2(self, small_config, tmp_path, capsys):
        # json.loads reads NaN
        code = run_cli(["count", "--config", str(small_config), "--out", str(tmp_path),
                        "--override", "ellipsoid.M=[[NaN,0],[0,1]]"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("flow", "flow.eps=null"),
        ("flow", "flow.t=null"),
        ("flow", "flow.z0=5"),
        ("deform", "tolerances.boundary_tol=null"),
        ("flow", "ellipsoid.E=[]"),
        ("epsilon", "ellipsoid.E=[]"),
        ("deform", "ellipsoid.E=[]"),
        ("count", "ellipsoid.E=[]"),
        ("covariance", "covariance.cases=[[1,2]]"),
        ("covariance", 'covariance.grids=["x"]'),
        ("count", "lattice.box=[[-Infinity,1],[0,1]]"),
        # an empty box's eps* is the cap EPS_MAX, and hbar is 1/(2 pi): constants,
        # not keys
        ("epsilon", f"{EMPTY_BOX} tolerances.eps_max=1"),
        ("bounds", "grid.hbar=0.5"),
        ("count", "tolerances.boundary_tol=-1"),
        ("flow", "flow.t=NaN"),
        ("flow", "flow.dt_max=NaN"),
        ("flow", "flow.t=Infinity"),
        ("flow", "flow.z0=[NaN,0]"),
        ("deform", "deformation.t_values=[NaN]"),
        ("covariance", "covariance.cases=[[NaN,1,0]]"),
        ("count", "ellipsoid.E=Infinity"),
        ("bounds", "grid.N=Infinity"),
        ("covariance", "covariance.grids=[Infinity]"),
        # counts are integers, and numbers are JSON numbers, not strings or booleans
        ("bounds", "grid.N=64.9"),
        ("covariance", "covariance.grids=[32.5,64]"),
        ("bounds", 'grid.L="12"'),
        ("flow", "flow.t=true"),
        ("count", 'ellipsoid.E="0.5"'),
        ("count", 'ellipsoid.M=[["1",0],[0,1]]'),
        ("flow", "flow.dt_max=0"),
        ("flow", "flow.dt_max=-1"),
        ("bounds", "window.gamma=[0,1,7]"),
        # an integer too large for a float
        pytest.param("count", f"ellipsoid.E={HUGE}", id="count-ellipsoid.E=HUGE"),
        pytest.param("flow", f"flow.eps={HUGE}", id="flow-flow.eps=HUGE"),
        pytest.param("deform", f"deformation.t_values=[{HUGE}]",
                     id="deform-deformation.t_values=[HUGE]"),
        pytest.param("covariance", f"covariance.cases=[[{HUGE},0,0]]",
                     id="covariance-covariance.cases=[[HUGE,0,0]]"),
        pytest.param("count", f"tolerances.boundary_tol={HUGE}",
                     id="count-tolerances.boundary_tol=HUGE"),
        # fields that the subcommand does not read fail at load all the same
        ("deform", 'flow.eps="x"'),
        ("flow", "lattice.alpha=null"),
        ("count", "grid.N=64.5"),
        ("bounds", 'covariance.grids=["x"]'),
        ("epsilon", "deformation.t_values=[NaN]"),
        # a module type's own check on one field runs at load too
        ("flow", "grid.N=100"),
        ("bounds", "ellipsoid.M=[[1,0],[0,-1]]"),
        ("count", "window.gamma=[0,-1]"),
        ("flow", "lattice.box=[[1,0],[0,1]]"),
        ("count", "covariance.grids=[32,48]"),
    ])
    def test_malformed_field_exits_2(self, small_config, tmp_path, command, override, capsys):
        # several overrides are separated by spaces
        out = tmp_path / "out"
        overrides = [arg for item in override.split() for arg in ("--override", item)]
        code = run_cli([command, "--config", str(small_config), "--out", str(out),
                        "--no-timestamp", *overrides])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @given(field=st.sampled_from(FIELDS), command=st.sampled_from(sorted(_COMMANDS)),
           value=MALFORMED)
    @settings(max_examples=300, deadline=None)
    def test_any_malformed_field_exits_2_under_any_command(self, field, command, value,
                                                            shared_config):
        # null is the scenario grid for covariance.grids and no file for
        # window.file; a string names a window file
        assume(not (value is None and field in {"covariance.grids", "window.file"}))
        assume(not (isinstance(value, str) and field == "window.file"))
        out = shared_config.parent / "out"
        shutil.rmtree(out, ignore_errors=True)  # a failing example's CSV stays its own
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli([command, "--config", str(shared_config), "--out", str(out),
                            "--no-timestamp", "--override", f"{field}={json.dumps(value)}"])
        assert code == 2
        assert "config error" in err.getvalue()
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("header", [
        '{"N": 64}',
        "[1, 2]",
        # a grid off the origin or at another hbar
        '{"N": 64, "x_min": -3.0, "dx": 0.1875, "hbar": 0.15915494309189535}',
        '{"N": 64, "x_min": -6.0, "dx": 0.1875, "hbar": 1.0}',
        # a fractional N is rejected, not truncated to 64
        '{"N": 64.9, "x_min": -6.0, "dx": 0.1875, "hbar": 0.15915494309189535}',
        # numbers are JSON numbers, not strings that parse as numbers
        '{"N": "64", "x_min": "-6", "dx": "0.1875", "hbar": 0.15915494309189535}',
    ], ids=["missing-key", "not-an-object", "off-centre", "other-hbar", "fractional-N",
            "strings"])
    def test_malformed_window_header_exits_2(self, tmp_path, header, capsys):
        # a Gaussian payload of N = 64 samples, which a grid of that N would load
        x = 0.1875 * (np.arange(64) - 32)
        payload = np.exp(-math.pi * x * x).astype("<c16").tobytes()
        path = tmp_path / "a.bin"
        path.write_bytes(header.encode("ascii") + b"\n" + payload)
        code = run_cli(["bounds", "--out", str(tmp_path), "--override", "grid.N=64",
                        "--override", f"window.file={json.dumps(str(path))}"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_covariance_on_a_malformed_scenario_grid_exits_2(self, tmp_path, capsys):
        # with no covariance grids set, the scenario grid is the one compared
        code = run_cli(["covariance", "--out", str(tmp_path), "--override", "grid.N=null"])
        assert code == 2
        assert "config error: invalid grid" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, small_config, tmp_path):
        # a time below the step-underflow threshold trips the integrator guard
        code = run_cli(["flow", "--config", str(small_config), "--out", str(tmp_path),
                        "--no-timestamp", "--override", "flow.t=1e-13"])
        assert code == 3

    @pytest.mark.parametrize("override", [
        "ellipsoid.M=[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
        "flow.z0=[5.0,0.0,0.0]",
    ])
    def test_flow_start_of_the_wrong_length_exits_3(self, small_config, tmp_path, override,
                                                    capsys):
        out = tmp_path / "out"
        code = run_cli(["flow", "--config", str(small_config), "--out", str(out),
                        "--no-timestamp", "--override", override])
        assert code == 3
        assert "dimension" in capsys.readouterr().err
        assert not (out / "flow.csv").exists()

    def test_bug_propagates_with_traceback(self, small_config, tmp_path, monkeypatch):
        from gaborflow import cli

        def broken(args):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(cli._COMMANDS, "count", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_cli(["count", "--config", str(small_config), "--out", str(tmp_path)])

    def test_no_scipy_on_the_run_path(self, small_config, tmp_path):
        # a fresh interpreter, so that only the subcommands' own imports count;
        # the last line of its output maps each command to its exit code and
        # the scipy modules loaded by then
        script = (
            "import json, sys\n"
            "from gaborflow.cli import _COMMANDS, main\n"
            "report = {}\n"
            "for cmd in _COMMANDS:\n"
            f"    code = main([cmd, '--config', {str(small_config)!r}, '--out', {str(tmp_path)!r},"
            " '--no-timestamp'])\n"
            "    report[cmd] = [code, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')]\n"
            "print(json.dumps(report))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        commands = ["bounds", "deform", "flow", "epsilon", "count", "covariance"]
        assert report == {cmd: [0, []] for cmd in commands}

    def test_in_process_reruns_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["deform", "--config", str(small_config), "--out", str(out),
                            "--no-timestamp"]) == 0
        assert (out1 / "deform.csv").read_bytes() == (out2 / "deform.csv").read_bytes()

    def test_timestamp_header_present_by_default(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["count", "--config", str(small_config), "--out", str(out)]) == 0
        assert (out / "count.csv").read_text().startswith("# generated ")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_table_lists_every_field():
    # a field added to or removed from the config leaves no stale README row;
    # the table is the one headed "| field | kind | default |"
    lines = README.read_text().splitlines()
    start = lines.index("| field | kind | default |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("| `"), lines[start:])
    assert sorted(row.split("`")[1] for row in rows) == sorted(FIELDS)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# each committed scenario, the command it is written for, and overrides that
# shrink it to a smoke run; a scenario missing here fails with a KeyError
SCENARIO_RUNS = {
    "deform_sweep.json": ("deform", ["grid.N=64"]),
    "covariance_convergence.json": ("covariance", ["covariance.grids=[32,64]"]),
    # a smaller torus-covering lattice: alpha = beta = 1/2 on N = 64, L = 8
    "torus_sweep.json": ("deform", ["grid.N=64", "grid.L=8.0",
                                    "lattice.box=[[-4.0,3.5],[-4.0,3.5]]"]),
}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_scenario_runs_through_cli(name, tmp_path):
    command, overrides = SCENARIO_RUNS[name]
    path = SCENARIOS / name
    cfg = ScenarioConfig.from_json_file(path)
    overrides = overrides + [f"covariance.cases={json.dumps(cfg.covariance.cases[:2])}"]
    args = [command, "--config", str(path), "--out", str(tmp_path), "--no-timestamp"]
    for item in overrides:
        args += ["--override", item]
    assert run_cli(args) == 0
    rows = (tmp_path / f"{command}.csv").read_text().splitlines()[1:]
    if command == "deform":
        assert len(rows) == len(cfg.ellipsoid.E) * len(cfg.deformation.t_values)
    else:
        assert len(rows) == 2


def test_torus_sweep_keeps_a_live_lower_bound(tmp_path):
    # the lattice covers the grid's torus (m = 1024 > N = 256), so A is not
    # zero by counting, and moving the enclosed points keeps a frame
    assert run_cli(["deform", "--config", str(SCENARIOS / "torus_sweep.json"),
                    "--out", str(tmp_path), "--no-timestamp"]) == 0
    rows = [[float(c) for c in line.split(",")]
            for line in (tmp_path / "deform.csv").read_text().splitlines()[1:]]
    assert len(rows) == 18
    for t, E, _, moved, A, B, A_prime, B_prime, rel_dA, _ in rows:
        assert moved == {1.3: 35, 4.3: 103}[E]
        assert A == pytest.approx(3.9701767139642268, rel=1e-13)
        assert B == pytest.approx(4.0299348813803455, rel=1e-13)
        assert A_prime > FRAME_THRESHOLD * B_prime
        assert rel_dA > 0.0 or t == 0.0
