import pytest

from secthru import NumericsError, checks, full_csi, main_csi
from secthru.cli import RunConfig, main, parse_config_file

FAST = ["--tol", "1e-6"]


def run_cli(argv):
    return main(argv)


def counted(solve, seen):
    """solve, recording the (solver, theta, avg_snr, gamma) of each call in seen."""
    def wrapper(qos, link, law_m, law_e, tol):
        seen.append((solve.__name__, qos.theta, link.avg_snr, link.gamma))
        return solve(qos, link, law_m, law_e, tol)
    return wrapper


def read_rows(path):
    lines = path.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in data[1:]]


class TestSweepTheta:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-theta", "--theta", "0.005,0.02", "--csi", "both", *FAST]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_full_dominates_main_and_gap_shrinks(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep-theta", "--theta", "0.002,0.05", "--csi", "both",
                        *FAST, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        by_theta = {}
        for row in rows:
            by_theta.setdefault(row["theta"], {})[row["csi"]] = float(row["throughput_bits_s_hz"])
        gaps = []
        for theta in ("0.002", "0.05"):
            full, main_ = by_theta[theta]["full"], by_theta[theta]["main"]
            assert full >= main_ - 1e-6
            gaps.append((full - main_) / full)
        assert gaps[1] < gaps[0]

    def test_theta_zero_rows_use_benchmark(self, tmp_path):
        out = tmp_path / "erg.csv"
        assert run_cli(["sweep-theta", "--theta", "0", "--csi", "both",
                        *FAST, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert row["beta"] == "0.0"
            assert float(row["throughput_bits_s_hz"]) > 0.3

    def test_header_echoes_config(self, tmp_path):
        out = tmp_path / "hdr.csv"
        run_cli(["sweep-theta", "--theta", "0.01", "--csi", "full", *FAST,
                 "--gamma", "2.0", "--out", str(out)])
        text = out.read_text()
        assert "# gamma=2.0" in text
        assert "# csi=full" in text
        assert "# theta=0.01" in text


class TestSweepSnr:
    def test_zero_snr_sentinel_and_theta_ordering(self, tmp_path):
        out = tmp_path / "snr.csv"
        assert run_cli(["sweep-snr", "--theta", "0.004,0.04", "--snr-db=-inf,0",
                        "--csi", "full", *FAST, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        zero_rows = [r for r in rows if r["snr_db"] == "-inf"]
        assert zero_rows and all(float(r["throughput_bits_s_hz"]) == 0.0 for r in zero_rows)
        at0 = {r["theta"]: float(r["throughput_bits_s_hz"]) for r in rows if r["snr_db"] == "0.0"}
        assert at0["0.004"] > at0["0.04"]

    def test_monotone_in_snr(self, tmp_path):
        out = tmp_path / "mono.csv"
        assert run_cli(["sweep-snr", "--theta", "0.01", "--snr-db=-5,0,5",
                        "--csi", "main", *FAST, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        values = [float(r["throughput_bits_s_hz"]) for r in rows]
        assert values == sorted(values)

    def test_high_snr_rows_solve_at_the_default_tolerances(self, tmp_path):
        # at 30 dB the theta = 0 full-CSI threshold nu is about 1e-6: the
        # transmit region's quadrature must resolve its layer within the panel cap
        out = tmp_path / "high.csv"
        assert run_cli(["sweep-snr", "--theta", "0", "--snr-db=20,30", "--csi", "both",
                        "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4
        assert all(r["error"] == "" and float(r["throughput_bits_s_hz"]) > 0.0 for r in rows)

    def test_tight_tol_floors_root_tol_where_the_lane_kernel_can_meet_it(self, tmp_path):
        # --tol 1e-11 alone would ask root_tol = 1e-15, below what the lane
        # kernel's step test can meet in double precision
        out = tmp_path / "tight.csv"
        assert run_cli(["sweep-snr", "--theta", "0", "--snr-db=30", "--csi", "both",
                        "--tol", "1e-11", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(r["error"] == "" and float(r["throughput_bits_s_hz"]) > 0.0 for r in rows)
        assert "root_tol=1e-14" in out.read_text()


class TestPolicySurface:
    def test_silent_half_plane(self, tmp_path):
        out = tmp_path / "surf.csv"
        assert run_cli(["policy-surface", "--theta", "0,0.01", "--grid", "3,3,7",
                        *FAST, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2 * 7 * 7
        for row in rows:
            if float(row["z_m"]) <= float(row["z_e"]):
                assert float(row["mu"]) == 0.0

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_cli(["policy-surface", "--theta", "0.01", "--grid", "3,3,0",
                        *FAST, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["theta", "z_e", "z_m", "mu"]
        assert rows == []

    @pytest.mark.parametrize("grid", ["4,4,-1", "4,nan,3", "-4,4,3"])
    def test_invalid_grid_rejected(self, grid, capsys):
        # a negative step count, a non-finite or a negative maximum
        assert run_cli(["policy-surface", "--theta", "0.01", f"--grid={grid}", *FAST]) == 1
        assert capsys.readouterr().err.startswith("error: grid")

    def test_numeric_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        # the theta = 0.01 solve fails: its rows are dropped, the other
        # theta's kept, and stderr names the failure under exit code 2
        solve = RunConfig.solve

        def failing(cfg, mode, theta, snr_db):
            if theta == 0.01:
                raise NumericsError("calibration residual above target")
            return solve(cfg, mode, theta, snr_db)

        monkeypatch.setattr(RunConfig, "solve", failing)
        out = tmp_path / "surf.csv"
        assert run_cli(["policy-surface", "--theta", "0,0.01", "--grid", "3,3,5",
                        *FAST, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numeric error at theta=0.01: calibration residual above target" in err
        _, rows = read_rows(out)
        assert len(rows) == 5 * 5 and {row["theta"] for row in rows} == {"0.0"}


class TestSolverFailureRows:
    def test_failed_rows_keep_the_run_going(self, tmp_path):
        # an unreachable iteration budget breaks the calibration, the sweep
        # records the failure per row and exits with the numeric-failure code
        cfg = tmp_path / "starved.cfg"
        cfg.write_text("max_iter=2\ntheta=0.01,0.02\ncsi=full\n")
        out = tmp_path / "rows.csv"
        assert run_cli(["sweep-theta", "--config", str(cfg), "--out", str(out)]) == 2
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(r["error"] != "" and r["throughput_bits_s_hz"] == "" for r in rows)

    def test_main_mode_rejected(self, tmp_path):
        assert run_cli(["policy-surface", "--csi", "main", "--grid", "2,2,3", *FAST]) == 1


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep setup\ntheta=0.01\ncsi=full\ngamma=4.0\n")
        out = tmp_path / "out.csv"
        assert run_cli(["sweep-theta", "--config", str(cfg), "--gamma", "1.0",
                        *FAST, "--out", str(out)]) == 0
        text = out.read_text()
        assert "# gamma=1.0" in text  # flag wins
        assert "# csi=full" in text

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("thetaa=0.01\n")
        assert run_cli(["sweep-theta", "--config", str(cfg)]) == 1

    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text("theta=0.001,0.01\nframes=500\nseed=9\ngrid=2,3,5\nout=x.csv\n")
        parsed = parse_config_file(str(cfg))
        assert parsed["theta"] == (0.001, 0.01)
        assert parsed["frames"] == 500 and parsed["seed"] == 9
        assert parsed["grid"] == (2.0, 3.0, 5)
        assert parsed["out"] == "x.csv"

    def test_invalid_flag_value(self):
        assert run_cli(["sweep-theta", "--theta", "-0.5"]) == 1
        assert run_cli(["sweep-theta", "--gamma", "0"]) == 1

    def test_usage_error_is_validation_failure(self, capsys):
        assert run_cli(["sweep-theta", "--csi", "bogus"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [("seed", "-1"), ("frames", "-5"), ("frames", "0")])
    def test_bad_seed_or_frames_rejected(self, key, value, source, tmp_path, capsys):
        if source == "flag":
            argv = [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv = ["--config", str(cfg)]
        assert run_cli(["validate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} must be")
        assert captured.out == ""

    def test_unparsable_value_names_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for lineno, line in ((2, "theta=abc"), (3, "frames=1e6")):
            cfg.write_text("# a comment\n" * (lineno - 1) + line + "\n")
            assert run_cli(["sweep-theta", "--config", str(cfg)]) == 1
            captured = capsys.readouterr()
            key = line.split("=")[0]
            assert captured.err.startswith(f"error: {cfg}:{lineno}: bad value for {key!r}")
            assert captured.out == ""


class TestValidate:
    def test_quick_gate_passes(self, capsys, tmp_path, monkeypatch):
        solved = []
        for module, name in ((full_csi, "solve_full"), (main_csi, "solve_main")):
            monkeypatch.setattr(module, name, counted(getattr(module, name), solved))
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("theta=0.004,0.01,0.04\nframes=200000\nquad_rel_tol=1e-6\nroot_tol=1e-10\n")
        code = run_cli(["validate", "--config", str(cfg)])
        output = capsys.readouterr().out
        assert code == 0, output
        lines = [ln for ln in output.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines)
        assert any("queue-decay" in ln for ln in lines)
        # the checks share their rows: each configuration is solved once
        assert solved and len(solved) == len(set(solved))

    @pytest.mark.parametrize("frames", ["1", "99999"])
    def test_too_few_frames_rejected_before_any_check(self, frames, capsys, tmp_path,
                                                      monkeypatch):
        ran = []
        monkeypatch.setattr(checks, "run", lambda name, cfg: ran.append(name))
        assert run_cli(["validate", "--frames", frames]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: validate needs frames >= 100000")
        assert captured.out == "" and ran == []
        # the sweeps simulate no queue and keep accepting any positive count
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep-theta", "--theta", "0.01", "--csi", "full", "--frames", frames,
                        *FAST, "--out", str(out)]) == 0

    def test_tampered_tolerance_fails(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta=0.01\nframes=200000\nroot_tol=10\nquad_rel_tol=1e-4\nmax_iter=8\n")
        code = run_cli(["validate", "--config", str(cfg)])
        output = capsys.readouterr().out
        assert code != 0
        assert any(ln.startswith("FAIL kkt-residual-full") for ln in output.splitlines())
