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

from . import full_csi, main_csi, queuesim
from .model import FadingLaw, LinkBudget, ValidationError, make_qos
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

    def link(self, snr_db: float) -> LinkBudget:
        snr = 0.0 if snr_db == -math.inf else 10.0 ** (snr_db / 10.0)
        return LinkBudget(avg_snr=snr, gamma=self.gamma)

    def laws(self):
        return FadingLaw(mean_gain=self.mean_zm), FadingLaw(mean_gain=self.mean_ze)

    def modes(self):
        if self.csi == "both":
            return ("full", "main")
        return (self.csi,)


_FLOAT_LIST_KEYS = {"theta", "snr_db"}
_FLOAT_KEYS = {"gamma", "mean_zm", "mean_ze", "frame_t", "bandwidth",
               "root_tol", "quad_rel_tol", "trunc_mass", "power_rel_tol"}
_INT_KEYS = {"max_iter", "seed", "frames"}
_STR_KEYS = {"csi", "out"}


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
                out[key] = _parse_float_list(value)
            elif key == "grid":
                out[key] = _parse_grid(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            else:
                out[key] = value
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
    cfg.tolerances()
    cfg.laws()
    for db in cfg.snr_db:
        cfg.link(db)
    for theta in cfg.theta:
        make_qos(theta, cfg.frame_t, cfg.bandwidth)
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


def _solve_row(mode: str, theta: float, cfg: RunConfig, snr_db: float):
    qos = make_qos(theta, cfg.frame_t, cfg.bandwidth)
    link = cfg.link(snr_db)
    law_m, law_e = cfg.laws()
    tol = cfg.tolerances()
    if mode == "full":
        return full_csi.throughput_full(qos, link, law_m, law_e, tol)
    return main_csi.throughput_main(qos, link, law_m, law_e, tol)


def cmd_sweep_theta(cfg: RunConfig) -> int:
    header = ["theta", "beta", "csi", "throughput_bits_s_hz", "lambda", "power_residual", "error"]
    rows = []
    failed = False
    snr_db = cfg.snr_db[0]
    for theta in cfg.theta:
        beta = make_qos(theta, cfg.frame_t, cfg.bandwidth).beta
        for mode in cfg.modes():
            try:
                res = _solve_row(mode, theta, cfg, snr_db)
                rows.append([theta, beta, mode, res.throughput_bits_s_hz,
                             res.lam, res.power_residual, ""])
            except NumericsError as exc:
                failed = True
                rows.append([theta, beta, mode, "", "", "", str(exc)])
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def cmd_sweep_snr(cfg: RunConfig) -> int:
    header = ["theta", "beta", "csi", "snr_db", "throughput_bits_s_hz",
              "lambda", "power_residual", "error"]
    rows = []
    failed = False
    for theta in cfg.theta:
        beta = make_qos(theta, cfg.frame_t, cfg.bandwidth).beta
        for mode in cfg.modes():
            for snr_db in cfg.snr_db:
                try:
                    res = _solve_row(mode, theta, cfg, snr_db)
                    rows.append([theta, beta, mode, snr_db, res.throughput_bits_s_hz,
                                 res.lam, res.power_residual, ""])
                except NumericsError as exc:
                    failed = True
                    rows.append([theta, beta, mode, snr_db, "", "", "", str(exc)])
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def cmd_policy_surface(cfg: RunConfig) -> int:
    if cfg.csi == "main":
        raise ValidationError("policy-surface renders the full-CSI power map; use --csi full")
    ze_max, zm_max, steps = cfg.grid
    ze = np.linspace(0.0, ze_max, steps)
    zm = np.linspace(0.0, zm_max, steps)
    law_m, law_e = cfg.laws()
    tol = cfg.tolerances()
    link = cfg.link(cfg.snr_db[0])
    header = ["theta", "z_e", "z_m", "mu"]
    rows = []
    failed = False
    for theta in cfg.theta:
        qos = make_qos(theta, cfg.frame_t, cfg.bandwidth)
        try:
            surface = full_csi.policy_surface_full(qos, link, law_m, law_e, ze, zm, tol)
        except NumericsError:
            failed = True
            continue
        for i, z_e in enumerate(ze):
            for j, z_m in enumerate(zm):
                rows.append([theta, float(z_e), float(z_m), float(surface[i, j])])
    _write_csv(cfg, header, rows)
    return 2 if failed else 0


def _validation_checks(cfg: RunConfig):
    """(name, callable) pairs; each callable returns (ok, detail)."""
    law_m, law_e = cfg.laws()
    tol = cfg.tolerances()
    link = cfg.link(cfg.snr_db[0])
    rng = np.random.default_rng(cfg.seed)

    def kkt_residual_full():
        worst = 0.0
        for _ in range(200):
            z_m, z_e = rng.exponential(1.0, 2)
            beta = rng.uniform(0.3, 5.0)
            lam = rng.uniform(0.05, 1.0)
            mu = full_csi.pointwise_power(z_m, z_e, link, beta, lam, tol)
            if mu > 0.0:
                resid = abs(float(full_csi.kkt_lhs_full(mu, z_m, z_e, cfg.gamma, beta)) - lam)
                worst = max(worst, resid / lam)
        return worst < 1e-8, f"worst relative residual {worst:.3e}"

    def closed_form_beta1():
        z_m = rng.exponential(1.0, 500)
        z_e = rng.exponential(1.0, 500)
        lam = 0.4
        mu = full_csi.power_grid(z_m, z_e, cfg.gamma, 1.0, lam, tol)
        diff = z_m - cfg.gamma * z_e
        ref = np.where(diff > lam, (np.sqrt(np.clip(diff, 0.0, None) / lam) - 1.0) / z_m, 0.0)
        worst = float(np.max(np.abs(mu - ref)))
        return worst < 1e-8, f"worst |mu - closed form| {worst:.3e}"

    def kkt_residual_main():
        worst = 0.0
        for _ in range(25):
            z_m = rng.exponential(1.0) + 0.5
            beta = rng.uniform(0.5, 4.0)
            lam = rng.uniform(0.05, 0.5)
            mu = main_csi.power_main(z_m, beta, lam, link, law_e, tol)
            if mu > 0.0:
                resid = abs(main_csi.kkt_lhs_main(z_m, mu, beta, link, law_e, tol) - lam)
                worst = max(worst, resid / lam)
        return worst < 1e-8, f"worst relative residual {worst:.3e}"

    def oracle_full():
        worst = 0.0
        for _ in range(12):
            z_m = rng.uniform(0.2, 4.0)
            z_e = rng.uniform(0.0, 2.0)
            beta = rng.uniform(0.2, 8.0)
            lam = rng.uniform(0.05, 1.0)
            mu = full_csi.pointwise_power(z_m, z_e, link, beta, lam, tol)
            grid = np.arange(0.0, 50.0, 1e-3)
            obj = np.exp(-beta * (np.log1p(grid * z_m) - np.log1p(cfg.gamma * grid * z_e))) + lam * grid
            i = int(np.argmin(obj))
            fine = np.arange(max(0.0, grid[i] - 2e-3), grid[i] + 2e-3, 1e-6)
            obj = np.exp(-beta * (np.log1p(fine * z_m) - np.log1p(cfg.gamma * fine * z_e))) + lam * fine
            worst = max(worst, abs(mu - float(fine[np.argmin(obj)])))
        return worst < 1e-3, f"worst |mu - grid minimizer| {worst:.3e}"

    def calibration():
        beta = make_qos(cfg.theta[0] if cfg.theta[0] > 0 else 0.01,
                        cfg.frame_t, cfg.bandwidth).beta
        lam_f = full_csi.calibrate_lambda_full(link, beta, law_m, law_e, tol)
        res_f = abs(full_csi.mean_power_full(lam_f / beta, beta, link, law_m, law_e, tol)
                    - link.avg_snr)
        lam_m = main_csi.calibrate_lambda_main(link, beta, law_m, law_e, tol)
        res_m = abs(main_csi.mean_power_main(lam_m / beta, beta, link, law_m, law_e, tol)
                    - link.avg_snr)
        rel = max(res_f, res_m) / link.avg_snr
        return rel <= 1e-4, f"worst relative power residual {rel:.3e}"

    def ordering():
        thetas = sorted({min(cfg.theta), 0.01, max(cfg.theta)})
        gaps = []
        prev_full = math.inf
        ok = True
        for theta in thetas:
            full = _solve_row("full", theta, cfg, cfg.snr_db[0]).throughput_bits_s_hz
            main = _solve_row("main", theta, cfg, cfg.snr_db[0]).throughput_bits_s_hz
            ok &= full >= main - 1e-6
            ok &= full <= prev_full + 1e-9
            prev_full = full
            gaps.append((full - main) / full if full > 0 else 0.0)
        ok &= gaps[-1] < gaps[0]
        return ok, f"relative gaps across theta {['%.4f' % g for g in gaps]}"

    def theta0_continuity():
        qos0 = make_qos(0.0, cfg.frame_t, cfg.bandwidth)
        qos6 = make_qos(1e-6, cfg.frame_t, cfg.bandwidth)
        worst = max(abs(solve(qos6, link, law_m, law_e, tol).throughput_bits_s_hz
                        - solve(qos0, link, law_m, law_e, tol).throughput_bits_s_hz)
                    for solve in (full_csi.throughput_full, main_csi.throughput_main))
        return worst <= 1e-3, f"worst |C(1e-6) - C(0)| {worst:.3e}"

    def surface_structure():
        z = np.linspace(0.0, 4.0, 21)
        qos = make_qos(0.01, cfg.frame_t, cfg.bandwidth)
        s_qos = full_csi.policy_surface_full(qos, link, law_m, law_e, z, z, tol)
        s_erg = full_csi.policy_surface_full(make_qos(0.0), link, law_m, law_e, z, z, tol)
        ze_grid, zm_grid = np.meshgrid(z, z, indexing="ij")
        diff = zm_grid - cfg.gamma * ze_grid
        zeros_ok = np.all(s_qos[diff <= 0] == 0.0) and np.all(s_erg[diff <= 0] == 0.0)
        imax = np.unravel_index(int(np.argmax(diff)), diff.shape)
        opportunistic = s_erg[imax] > s_qos[imax]
        uniform = bool(np.any((diff > 0) & (s_qos > s_erg)))
        ok = bool(zeros_ok and opportunistic and uniform)
        return ok, (f"zero set {bool(zeros_ok)}, theta=0 peak dominance {bool(opportunistic)}, "
                    f"moderate-state dominance {uniform}")

    def queue_decay():
        qos = make_qos(0.01, cfg.frame_t, cfg.bandwidth)
        policy = full_csi.build_policy_full(qos, link, law_m, law_e, tol)
        res = full_csi.throughput_full(qos, link, law_m, law_e, tol)
        arrival = res.throughput_bits_s_hz * cfg.frame_t * cfg.bandwidth
        estimates = []
        for k in range(8):
            hist = queuesim.simulate_queue(policy, qos, link, law_m, law_e,
                                           arrival, cfg.frames, seed=cfg.seed + k)
            estimates.append(queuesim.estimate_decay(hist)[0])
        mean_est = float(np.mean(estimates))
        rel = abs(mean_est - 0.01) / 0.01
        return rel <= 0.20, f"theta_hat {mean_est:.5f} vs 0.01 (rel err {rel:.3f}, 8 seeds)"

    return [
        ("kkt-residual-full", kkt_residual_full),
        ("closed-form-beta1", closed_form_beta1),
        ("kkt-residual-main", kkt_residual_main),
        ("oracle-full", oracle_full),
        ("calibration", calibration),
        ("ordering", ordering),
        ("theta0-continuity", theta0_continuity),
        ("surface-structure", surface_structure),
        ("queue-decay", queue_decay),
    ]


def cmd_validate(cfg: RunConfig) -> int:
    any_fail = False
    any_numeric = False
    for name, check in _validation_checks(cfg):
        try:
            ok, detail = check()
        except NumericsError as exc:
            any_numeric = True
            print(f"FAIL {name}: numeric failure: {exc}")
            continue
        if ok:
            print(f"PASS {name}: {detail}")
        else:
            any_fail = True
            print(f"FAIL {name}: {detail}")
    if any_numeric:
        return 2
    return 1 if any_fail else 0


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
