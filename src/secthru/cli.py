"""Command-line front end: figure-style CSV sweeps and the validation gate.

Subcommands: sweep-theta, sweep-snr, policy-surface, validate. All output is
RFC-4180-style CSV with a comment header echoing the fully resolved
configuration; identical configurations produce byte-identical files.
Exit codes: 0 success, 1 validation failure, 2 numeric failure.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import full_csi, main_csi, queuesim
from .model import FadingLaw, LinkBudget, QosSpec, Solution, ValidationError, make_qos
from .numerics import NumericsError, Tolerances

_THETA_DEFAULT = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 9))
# --tol T sets root_tol = T*1e-4, but no finer than the lane kernel's step
# test can meet in double precision
_ROOT_TOL_FLOOR = 1e-14


def _flag(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters, the one declaration of a run's settings.

    Every field is a config-file key, and a field with help text is also the
    flag --<name> (dashes for underscores). The tolerance fields carry none:
    they are set through a config file or --tol. Construction checks every
    value, so a bad one raises ValidationError however the config was made.
    """

    theta: tuple = _flag(_THETA_DEFAULT, "comma list of QoS exponents (1/bit); 0 = no constraint")
    snr_db: tuple = _flag((0.0,), "comma list of average SNR values in dB (-inf allowed)")
    gamma: float = _flag(1.0, "noise ratio N1/N2")
    mean_zm: float = _flag(1.0, "mean power gain of the main channel")
    mean_ze: float = _flag(1.0, "mean power gain of the eavesdropper channel")
    frame_t: float = _flag(2e-3, "frame duration in seconds")
    bandwidth: float = _flag(1e5, "bandwidth in Hz")
    csi: str = _flag("both", "CSI mode: full, main or both")
    grid: tuple = _flag((4.0, 4.0, 41), "zE_max,zM_max,steps for policy-surface")
    root_tol: float = 1e-12
    quad_rel_tol: float = 1e-8
    trunc_mass: float = 1e-12
    max_iter: int = 120
    power_rel_tol: float = 1e-5
    seed: int = _flag(1729, "seed of the queue simulation and the Monte Carlo checks")
    frames: int = _flag(10_000_000, "frames per queue-simulation seed")
    out: str = _flag("", "output CSV path (default stdout)")

    def __post_init__(self):
        if self.csi not in ("full", "main", "both"):
            raise ValidationError("csi must be full, main, or both")
        ze_max, zm_max, steps = self.grid
        if not (math.isfinite(ze_max) and math.isfinite(zm_max) and ze_max >= 0 and zm_max >= 0):
            raise ValidationError("grid maxima must be finite and nonnegative")
        if steps < 0:
            raise ValidationError("grid steps must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.frames < 1:
            raise ValidationError("frames must be >= 1")
        self.tolerances()
        self.laws()
        for db in self.snr_db:
            self.link(db)
        for theta in self.theta:
            self.qos(theta)

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


def _parser(f):
    """Text -> value of a RunConfig field, for its flag and its config key."""
    if f.name == "grid":
        return _parse_grid
    if isinstance(f.default, tuple):
        return _parse_float_list
    return type(f.default)


def parse_config_file(path: str) -> dict:
    """key=value lines, '#' comments; unknown keys are rejected."""
    known = {f.name: f for f in fields(RunConfig)}
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
            try:
                out[key] = _parser(known[key])(value)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the config file, overridden by the flags that were given."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                  if getattr(args, f.name, None) is not None)
    if args.tol is not None:
        values["quad_rel_tol"] = args.tol
        values["root_tol"] = max(args.tol * 1e-4, _ROOT_TOL_FLOOR)
    return RunConfig(**values)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(cfg: RunConfig, header: list, rows: list) -> None:
    """Write the CSV of rows, each already rendered as one line of text."""
    # the header echoes every setting but out, whose path would break byte-identity
    names = sorted(f.name for f in fields(RunConfig) if f.name != "out")
    lines = [f"# {name}={_fmt(getattr(cfg, name))}" for name in names] + [",".join(header)]
    text = "\n".join(lines + rows) + "\n"
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
                    sol = cfg.solve(mode, theta, snr_db)
                    row += [sol.throughput_bits_s_hz, sol.lam, sol.power_residual, ""]
                except NumericsError as exc:
                    failed = True
                    row += ["", "", "", str(exc)]
                rows.append(",".join(map(_fmt, row)))
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
    zm_text = [repr(z_m) for z_m in zm.tolist()]
    rows = []
    failed = False
    for theta in cfg.theta:
        try:
            # surface[i, j] is the exact power (not the simulation table) at (zm[j], ze[i])
            sol = cfg.solve("full", theta, cfg.snr_db[0])
            surface = full_csi.power_grid(zm[None, :], ze[:, None], cfg.gamma, sol.beta,
                                          sol.lam, cfg.tolerances())
        except NumericsError as exc:
            failed = True
            print(f"numeric error at theta={theta!r}: {exc}", file=sys.stderr)
            continue
        # the row text _fmt would give, built from Python floats in bulk
        for z_e, powers in zip(ze.tolist(), surface.tolist()):
            head = f"{_fmt(theta)},{z_e!r},"
            rows.extend(f"{head}{z_m},{mu!r}" for z_m, mu in zip(zm_text, powers))
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def cmd_validate(cfg: RunConfig) -> int:
    from . import checks  # imported here: no other command needs the checks

    if cfg.frames < queuesim._MIN_FRAMES:  # the queue-decay check's floor, known up front
        raise ValidationError(f"validate needs frames >= {queuesim._MIN_FRAMES}")
    if cfg.link(cfg.snr_db[0]).avg_snr == 0.0:  # the reference point of most checks
        raise ValidationError("validate needs a positive budget at snr_db[0]")
    outcomes = set()
    for name in checks.CHECKS:
        ok, detail, seconds = checks.run(name, cfg)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({seconds:.2f}s)", flush=True)
        outcomes.add(ok)
    if None in outcomes:
        return 2
    return 1 if False in outcomes else 0


_COMMANDS = {
    "sweep-theta": (cmd_sweep_theta, "effective secure throughput vs the QoS exponent"),
    "sweep-snr": (cmd_sweep_snr, "effective secure throughput vs the average SNR"),
    "policy-surface": (cmd_policy_surface, "full-CSI power allocation on a gain grid"),
    "validate": (cmd_validate, "run the validation gate (nonzero exit on failure)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secthru",
        description="Secure-throughput power control sweeps and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig):
            if "help" in f.metadata:
                p.add_argument("--" + f.name.replace("_", "-"), type=_parser(f), default=None,
                               help=f.metadata["help"])
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature relative tolerance (root_tol follows at 1e-4x, "
                            "floored at 1e-14)")
        p.add_argument("--config", type=str, default=None,
                       help="key=value config file; flags override")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command][0](cfg)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
