"""Command-line front end: figure-style CSV sweeps and the validation gate.

Subcommands: sweep-theta, sweep-snr, policy-surface, validate. All output is
RFC-4180-style CSV with a comment header echoing the fully resolved
configuration; identical configurations produce byte-identical files.
Exit codes: 0 success, 1 validation failure, 2 numeric failure.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import checks, full_csi, main_csi, queuesim
from .model import FadingLaw, LinkBudget, QosSpec, Solution, ValidationError, make_qos
from .numerics import NumericsError, Tolerances

_THETA_DEFAULT = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 9))


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; every field mirrors a CLI flag or config key."""

    theta: tuple = _THETA_DEFAULT
    snr_db: tuple = (0.0,)
    gamma: float = 1.0
    mean_zm: float = 1.0
    mean_ze: float = 1.0
    frame_t: float = 2e-3
    bandwidth: float = 1e5
    csi: str = "both"
    grid: tuple = (4.0, 4.0, 41)
    root_tol: float = 1e-12
    quad_rel_tol: float = 1e-8
    trunc_mass: float = 1e-12
    max_iter: int = 120
    power_rel_tol: float = 1e-5
    seed: int = 1729
    frames: int = 10_000_000
    out: str = ""

    def tolerances(self) -> Tolerances:
        return Tolerances(
            root_tol=self.root_tol,
            quad_rel_tol=self.quad_rel_tol,
            quad_trunc_mass=self.trunc_mass,
            max_iter=self.max_iter,
            power_rel_tol=self.power_rel_tol,
        )

    def qos(self, theta: float) -> QosSpec:
        return make_qos(theta, self.frame_t, self.bandwidth)

    def link(self, snr_db: float) -> LinkBudget:
        snr = 0.0 if snr_db == -math.inf else 10.0 ** (snr_db / 10.0)
        return LinkBudget(avg_snr=snr, gamma=self.gamma)

    def laws(self):
        return FadingLaw(mean_gain=self.mean_zm), FadingLaw(mean_gain=self.mean_ze)

    def solve(self, mode: str, theta: float, snr_db: float) -> Solution:
        """One row: the calibrated solution of CSI mode 'full' or 'main'."""
        solver = full_csi.solve_full if mode == "full" else main_csi.solve_main
        return solver(self.qos(theta), self.link(snr_db), *self.laws(), self.tolerances())

    def modes(self):
        if self.csi == "both":
            return ("full", "main")
        return (self.csi,)


_FLOAT_LIST_KEYS = {"theta", "snr_db"}
_FLOAT_KEYS = {"gamma", "mean_zm", "mean_ze", "frame_t", "bandwidth",
               "root_tol", "quad_rel_tol", "trunc_mass", "power_rel_tol"}
_INT_KEYS = {"max_iter", "seed", "frames"}


def _parse_float_list(text: str) -> tuple:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValidationError("empty list value")
    return tuple(float(s) for s in items)


def _parse_grid(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("grid must be zE_max,zM_max,steps")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def parse_config_file(path: str) -> dict:
    """key=value lines, '#' comments; unknown keys are rejected."""
    known = {f.name for f in fields(RunConfig)}
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in _FLOAT_LIST_KEYS:
                parse = _parse_float_list
            elif key == "grid":
                parse = _parse_grid
            elif key in _FLOAT_KEYS:
                parse = float
            elif key in _INT_KEYS:
                parse = int
            else:
                parse = str
            try:
                out[key] = parse(value)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if getattr(args, "tol", None) is not None:
        overrides.setdefault("quad_rel_tol", args.tol)
        overrides.setdefault("root_tol", args.tol * 1e-4)
    cfg = replace(cfg, **overrides)
    if cfg.csi not in ("full", "main", "both"):
        raise ValidationError("csi must be full, main, or both")
    ze_max, zm_max, steps = cfg.grid
    if not (math.isfinite(ze_max) and math.isfinite(zm_max) and ze_max >= 0 and zm_max >= 0):
        raise ValidationError("grid maxima must be finite and nonnegative")
    if steps < 0:
        raise ValidationError("grid steps must be nonnegative")
    if cfg.seed < 0:
        raise ValidationError("seed must be nonnegative")
    if cfg.frames < 1:
        raise ValidationError("frames must be >= 1")
    cfg.tolerances()
    cfg.laws()
    for db in cfg.snr_db:
        cfg.link(db)
    for theta in cfg.theta:
        cfg.qos(theta)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_header(cfg: RunConfig) -> list:
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name == "out":  # self-referential; would break byte-identity across paths
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            text = ",".join(_fmt(v) for v in value)
        else:
            text = _fmt(value)
        lines.append(f"# {f.name}={text}")
    return lines


def _write_csv(cfg: RunConfig, header: list, rows: list) -> None:
    lines = _config_header(cfg)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep(cfg: RunConfig, snr_values: tuple, snr_column: bool) -> int:
    """Rows over theta x CSI mode x snr_values; a failed solve's row carries its error."""
    key = ["theta", "beta", "csi"] + (["snr_db"] if snr_column else [])
    header = key + ["throughput_bits_s_hz", "lambda", "power_residual", "error"]
    rows = []
    failed = False
    for theta in cfg.theta:
        beta = cfg.qos(theta).beta
        for mode in cfg.modes():
            for snr_db in snr_values:
                row = [theta, beta, mode] + ([snr_db] if snr_column else [])
                try:
                    res = cfg.solve(mode, theta, snr_db).throughput
                    rows.append(row + [res.throughput_bits_s_hz, res.lam, res.power_residual, ""])
                except NumericsError as exc:
                    failed = True
                    rows.append(row + ["", "", "", str(exc)])
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def cmd_sweep_theta(cfg: RunConfig) -> int:
    return _sweep(cfg, cfg.snr_db[:1], snr_column=False)


def cmd_sweep_snr(cfg: RunConfig) -> int:
    return _sweep(cfg, cfg.snr_db, snr_column=True)


def cmd_policy_surface(cfg: RunConfig) -> int:
    if cfg.csi == "main":
        raise ValidationError("policy-surface renders the full-CSI power map; use --csi full")
    ze_max, zm_max, steps = cfg.grid
    ze = np.linspace(0.0, ze_max, steps)
    zm = np.linspace(0.0, zm_max, steps)
    header = ["theta", "z_e", "z_m", "mu"]
    rows = []
    failed = False
    for theta in cfg.theta:
        try:
            # surface[i, j] is the power at (zm[j], ze[i])
            policy = cfg.solve("full", theta, cfg.snr_db[0]).policy()
            surface = policy.state_power(zm[None, :], ze[:, None])
        except NumericsError as exc:
            failed = True
            print(f"numeric error at theta={theta!r}: {exc}", file=sys.stderr)
            continue
        for i, z_e in enumerate(ze):
            for j, z_m in enumerate(zm):
                rows.append([theta, float(z_e), float(z_m), float(surface[i, j])])
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def cmd_validate(cfg: RunConfig) -> int:
    if cfg.frames < queuesim._MIN_FRAMES:  # the queue-decay check's floor, known up front
        raise ValidationError(f"validate needs frames >= {queuesim._MIN_FRAMES}")
    outcomes = set()
    for name in checks.CHECKS:
        ok, detail, seconds = checks.run(name, cfg)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({seconds:.2f}s)", flush=True)
        outcomes.add(ok)
    if None in outcomes:
        return 2
    return 1 if False in outcomes else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secthru",
        description="Secure-throughput power control sweeps and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep-theta", "effective secure throughput vs the QoS exponent"),
        ("sweep-snr", "effective secure throughput vs the average SNR"),
        ("policy-surface", "full-CSI power allocation on a gain grid"),
        ("validate", "run the validation gate (nonzero exit on failure)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--theta", type=_parse_float_list, default=None,
                       help="comma list of QoS exponents (1/bit); 0 = no constraint")
        p.add_argument("--snr-db", dest="snr_db", type=_parse_float_list, default=None,
                       help="comma list of average SNR values in dB (-inf allowed)")
        p.add_argument("--gamma", type=float, default=None, help="noise ratio N1/N2")
        p.add_argument("--mean-zm", dest="mean_zm", type=float, default=None)
        p.add_argument("--mean-ze", dest="mean_ze", type=float, default=None)
        p.add_argument("--frame-t", dest="frame_t", type=float, default=None,
                       help="frame duration in seconds")
        p.add_argument("--bandwidth", type=float, default=None, help="bandwidth in Hz")
        p.add_argument("--csi", choices=("full", "main", "both"), default=None)
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="zE_max,zM_max,steps for policy-surface")
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature relative tolerance (root_tol follows at 1e-4x)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--frames", type=int, default=None,
                       help="frames per queue-simulation seed")
        p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
        p.add_argument("--config", type=str, default=None,
                       help="key=value config file; flags override")
    return parser


_COMMANDS = {
    "sweep-theta": cmd_sweep_theta,
    "sweep-snr": cmd_sweep_snr,
    "policy-surface": cmd_policy_surface,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
