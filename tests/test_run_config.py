"""RunConfig is the one declaration of a run: its fields make the CLI flags,
the config-file keys and the input checks."""

import argparse
import dataclasses
import math

import pytest

from secthru.cli import RunConfig, _resolve_config, build_parser, main, parse_config_file
from secthru.model import ValidationError

FAST = ["--tol", "1e-6"]
COMMANDS = {"sweep-theta", "sweep-snr", "policy-surface", "validate"}
SETTING_FLAGS = {"--theta", "--snr-db", "--gamma", "--mean-zm", "--mean-ze", "--frame-t",
                 "--bandwidth", "--csi", "--grid", "--seed", "--frames", "--out"}
TOLERANCE_KEYS = {"root_tol", "quad_rel_tol", "trunc_mass", "max_iter", "power_rel_tol"}
CONFIG_KEYS = {f.lstrip("-").replace("-", "_") for f in SETTING_FLAGS} | TOLERANCE_KEYS


def subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


def config_text(cfg):
    """key=value lines that set every field of cfg."""
    def text(value):
        return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
    return "".join(f"{f.name}={text(getattr(cfg, f.name))}\n" for f in dataclasses.fields(cfg))


class TestDeclaration:
    def test_each_subcommand_has_the_same_flags(self):
        commands = subcommands()
        assert set(commands) == COMMANDS
        for parser in commands.values():
            assert option_strings(parser) == SETTING_FLAGS | {"--tol", "--config", "-h", "--help"}

    def test_config_keys_are_the_fields(self):
        assert len(CONFIG_KEYS) == 17
        assert {f.name for f in dataclasses.fields(RunConfig)} == CONFIG_KEYS

    def test_no_tolerance_field_is_a_flag(self):
        for parser in subcommands().values():
            flags = option_strings(parser)
            for key in TOLERANCE_KEYS:
                assert f"--{key.replace('_', '-')}" not in flags and f"--{key}" not in flags

    def test_config_file_round_trips_every_key(self, tmp_path):
        cfg = RunConfig(theta=(0.0, 0.02), snr_db=(-math.inf, 3.0), gamma=2.0, csi="full",
                        grid=(2.0, 3.0, 5), root_tol=1e-10, max_iter=60, seed=9, frames=500,
                        out="x.csv")
        path = tmp_path / "all.cfg"
        path.write_text(config_text(cfg))
        parsed = parse_config_file(str(path))
        assert set(parsed) == CONFIG_KEYS
        assert RunConfig(**parsed) == cfg
        assert type(parsed["max_iter"]) is int and type(parsed["grid"][2]) is int


class TestChecks:
    @pytest.mark.parametrize("key,value", [
        ("csi", "bogus"), ("grid", (4.0, 4.0, -1)), ("grid", (math.nan, 4.0, 3)),
        ("grid", (-4.0, 4.0, 3)), ("seed", -1), ("frames", 0), ("theta", (-0.5,)),
        ("theta", (1e308,)), ("snr_db", (math.inf,)), ("snr_db", (math.nan,)),
    ])
    def test_construction_and_replace_reject(self, key, value):
        with pytest.raises(ValidationError):
            RunConfig(**{key: value})
        with pytest.raises(ValidationError):
            dataclasses.replace(RunConfig(), **{key: value})

    def test_bad_csi_names_the_choices(self, capsys):
        assert main(["sweep-theta", "--csi", "bogus"]) == 1
        assert capsys.readouterr().err == "error: csi must be full, main, or both\n"

    def test_overflowing_beta_is_a_validation_failure(self, capsys):
        # theta = 1e308 is finite, but beta = theta*T*B/ln 2 overflows to inf
        assert main(["sweep-theta", "--theta", "1e308", "--csi", "full"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: beta must be finite\n" and captured.out == ""


class TestResolution:
    def test_flag_overrides_a_bad_file_value_before_the_checks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=0\ntheta=0.01\ncsi=full\n")
        args = build_parser().parse_args(["validate", "--config", str(cfg), "--frames", "200000"])
        assert _resolve_config(args).frames == 200_000
        out = tmp_path / "out.csv"
        assert main(["sweep-theta", "--config", str(cfg), "--frames", "200000", *FAST,
                     "--out", str(out)]) == 0
        assert "# frames=200000" in out.read_text()

    def test_tol_overwrites_the_file_tolerances(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quad_rel_tol=1e-3\nroot_tol=1e-5\ntrunc_mass=1e-10\n")
        args = build_parser().parse_args(["sweep-snr", "--config", str(cfg), "--tol", "1e-6"])
        resolved = _resolve_config(args)
        assert (resolved.quad_rel_tol, resolved.root_tol) == (1e-6, 1e-6 * 1e-4)
        assert resolved.trunc_mass == 1e-10

    def test_no_config_and_no_flags_is_the_default(self):
        assert _resolve_config(build_parser().parse_args(["validate"])) == RunConfig()
