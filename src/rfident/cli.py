"""Batch command-line front end.

Subcommands: moments, crb-curves, mc-validate, identifiability, fleet-sim,
dr-analysis, authenticate. Configuration comes from an optional JSON file
plus flag overrides; outputs are plot-ready CSV/JSON written atomically.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from .auth import (
    FleetProtocolConfig,
    FeatureTable,
    balanced_dr,
    iwat_weights,
    run_auth_experiment,
    simulate_campaign,
)
from .constellation import (
    InvalidConstellationError,
    load_constellation_json,
    make_constellation,
    moments,
    predicted_fim_rank,
)
from .estimator import mc_crb_validation
from .fim_crb import (
    RankDeficientError,
    coupling_rho,
    crb_report,
    fim_closed_form,
    fim_numerical,
    marginalize_channel,
    subblock_eigenvalue_ratio,
)
from .signal_model import FleetSpread, HwiParams, generate_fleet

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_MODULATIONS = ("bpsk", "qpsk", "16qam")

# authenticate takes one key per FleetProtocolConfig field; fleet-sim makes one
# campaign, so it drops the enrollment and scoring keys and adds a burst count
_PROTOCOL_KEYS = frozenset(f.name for f in dataclasses.fields(FleetProtocolConfig))
_FLEET_SIM_KEYS = _PROTOCOL_KEYS - {
    "n_enroll", "n_probe", "n_bal", "n_dr_trials", "probe_acc", "n_acc_grid", "ridge", "target_fa",
} | {"n_bursts"}


class ConfigError(ValueError):
    pass


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows) -> None:
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_config(args, allowed: set) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("the config file must hold a JSON object")
        unknown = set(cfg) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _get(cfg: dict, key: str, default, kind=float):
    """``kind(cfg.get(key, default))``; a value that ``kind`` rejects is a
    configuration error."""
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _pair(v) -> tuple:
    """A two-number list as a (low, high) or (re, im) float pair."""
    lo, hi = map(float, v)
    return lo, hi


def _theta_from(cfg: dict) -> HwiParams:
    theta = _get(cfg, "theta", {}, dict)
    extra = set(theta) - {"eps", "phi_deg", "alpha3"}
    if extra:
        raise ConfigError(f"unknown theta keys: {sorted(extra)}")
    return HwiParams(
        eps=_get(theta, "eps", 0.03),
        phi=math.radians(_get(theta, "phi_deg", 2.0)),
        alpha3=complex(*_get(theta, "alpha3", [0.02, 0.01], _pair)),
    )


def _constellation_from(name: str):
    if name.endswith(".json"):
        return load_constellation_json(name)
    return make_constellation(name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_moments(args) -> int:
    c = _constellation_from(args.constellation)
    m = moments(c)
    rows = [[
        c.name, c.size, f"{m.mu20.real:.12g}", f"{m.mu20.imag:.12g}",
        f"{m.beta:.12g}", f"{m.mu4:.12g}", f"{m.mu6:.12g}", predicted_fim_rank(m),
    ]]
    header = ["constellation", "size", "mu20_re", "mu20_im", "beta", "mu4", "mu6", "rank"]
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        print(",".join(str(v) for v in rows[0]))
    return EXIT_OK


def cmd_crb_curves(args) -> int:
    cfg = _load_config(args, {"modulations", "snr_grid_db", "n_grid", "theta"})
    modulations = _get(cfg, "modulations", DEFAULT_MODULATIONS, list)
    snr_grid = _get(cfg, "snr_grid_db", range(0, 41, 5), list)
    n_grid = _get(cfg, "n_grid", [32, 76, 256], list)
    p = _theta_from(cfg)
    rows = []
    for mod in modulations:
        c = _constellation_from(mod)
        m = moments(c)
        for n in n_grid:
            for snr_db in snr_grid:
                gamma = 10.0 ** (float(snr_db) / 10.0)
                f = fim_closed_form(m, p, int(n), gamma)
                rep = crb_report(f)
                f_marg = marginalize_channel(c, p, int(n), gamma)
                rep_marg = crb_report(f_marg)
                for i, name in enumerate(("eps", "phi", "re_alpha3", "im_alpha3")):
                    diag = f.matrix[i, i]
                    rows.append([
                        mod, f"{float(snr_db):g}", int(n), name,
                        f"{rep.crb[i]:.10e}",
                        f"{(1.0 / diag if diag > 0 else math.inf):.10e}",
                        f"{rep_marg.crb[i]:.10e}",
                        rep.rank,
                    ])
    _write_csv(
        args.out,
        ["modulation", "snr_db", "n", "param", "crb", "crb_coupling_ignored",
         "crb_marginalized", "rank"],
        rows,
    )
    return EXIT_OK


def cmd_mc_validate(args) -> int:
    cfg = _load_config(args, {"modulation", "snr_grid_db", "n", "n_trials", "theta", "pilot_mode"})
    report = mc_crb_validation(
        cfg.get("modulation", "qpsk"),
        _theta_from(cfg),
        _get(cfg, "snr_grid_db", [0, 10, 20, 30, 40], list),
        n=_get(cfg, "n", 76, int),
        n_trials=_get(cfg, "n_trials", 300, int),
        seed=args.seed,
        pilot_mode=cfg.get("pilot_mode", "random"),
    )
    report.to_csv(args.out)
    return EXIT_OK


def cmd_identifiability(args) -> int:
    cfg = _load_config(args, {"modulations", "n", "snr_db", "theta", "rank_tol"})
    modulations = _get(cfg, "modulations", ["bpsk", "sdpsk", "qpsk", "8psk", "16qam", "64qam"],
                       list)
    n = _get(cfg, "n", 76, int)
    gamma = 10.0 ** (_get(cfg, "snr_db", 20.0) / 10.0)
    # flag overrides the config value
    rank_tol = args.rank_tol if args.rank_tol is not None else _get(cfg, "rank_tol", 1e-9)
    p = _theta_from(cfg)
    out = {}
    for mod in modulations:
        c = _constellation_from(mod)
        f = fim_numerical(c, p, n, gamma)
        rep = crb_report(f, rank_tol=rank_tol)
        out[mod] = {
            "beta": moments(c).beta,
            "rank": rep.rank,
            "predicted_rank": predicted_fim_rank(moments(c)),
            "null_basis": [list(map(float, v)) for v in rep.null_basis],
            "rho_phi_im_alpha3": coupling_rho(f, "phi", "im_alpha3"),
            "eig_ratio_phi_im_alpha3": subblock_eigenvalue_ratio(f, "phi", "im_alpha3"),
            "crb": [None if math.isinf(v) else float(v) for v in rep.crb],
        }
    _write_json(args.out, out)
    return EXIT_OK


def _protocol_config(cfg: dict) -> FleetProtocolConfig:
    unknown = set(cfg) - _PROTOCOL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(cfg)
    if "spread" in kwargs:
        s = _get(kwargs, "spread", None, dict)
        extra = set(s) - {"eps_range", "phi_range_deg", "alpha3_mag_range"}
        if extra:
            raise ConfigError(f"unknown spread keys: {sorted(extra)}")
        kwargs["spread"] = FleetSpread(**{k: _get(s, k, None, _pair) for k in s})
    if "n_acc_grid" in kwargs:
        kwargs["n_acc_grid"] = _get(kwargs, "n_acc_grid", None, lambda v: tuple(map(int, v)))
    # the remaining keys take the type of their default (a number for rician_k_db)
    defaults = FleetProtocolConfig()
    for key in sorted(kwargs.keys() - {"spread", "n_acc_grid"}):
        default = getattr(defaults, key)
        if kwargs[key] is not None or default is not None:
            kwargs[key] = _get(kwargs, key, None, float if default is None else type(default))
    return FleetProtocolConfig(**kwargs)


def cmd_fleet_sim(args) -> int:
    cfg = _load_config(args, _FLEET_SIM_KEYS)
    n_bursts = _get(cfg, "n_bursts", 60, int)
    proto = _protocol_config({k: v for k, v in cfg.items() if k != "n_bursts"})
    fleet = generate_fleet(proto.n_sats, proto.spread, seed=args.seed)
    table = simulate_campaign(fleet, proto, campaign_seed=args.seed, n_bursts=n_bursts)
    table.to_csv(os.path.join(args.out_dir, "features.csv"))
    _write_json(
        os.path.join(args.out_dir, "fleet.json"),
        [
            {"satellite_id": s, "eps": p.eps, "phi": p.phi,
             "alpha3": [p.alpha3.real, p.alpha3.imag]}
            for s, p in fleet
        ],
    )
    return EXIT_OK


def cmd_dr_analysis(args) -> int:
    cfg = _load_config(args, {"n_bal", "n_trials"})
    table = FeatureTable.from_csv(args.features)
    dr = balanced_dr(table, n_bal=_get(cfg, "n_bal", 30, int),
                     n_trials=_get(cfg, "n_trials", 30, int), seed=args.seed)
    dr.to_csv(args.out)
    return EXIT_OK


def cmd_authenticate(args) -> int:
    cfg = _load_config(args, _PROTOCOL_KEYS)
    if args.paper_dr:
        with open(args.paper_dr) as fh:
            drs = json.load(fh)
        w = iwat_weights(drs, tuple(drs.keys()), mode="dr2")
        _write_json(args.out or os.path.join(args.out_dir, "weights.json"), w.as_dict())
        return EXIT_OK
    proto = _protocol_config(cfg)
    report = run_auth_experiment(proto, seed=args.seed)
    _write_json(os.path.join(args.out_dir, "auth_report.json"), report.to_json_dict())
    rows = []
    for label, (ns, aucs) in report.auc_vs_nacc.items():
        rows.extend([label, n, f"{a:.8g}"] for n, a in zip(ns, aucs))
    _write_csv(os.path.join(args.out_dir, "auc_vs_nacc.csv"),
               ["strategy", "n_acc", "auc"], rows)
    roc_rows = []
    for label, roc in report.roc_curves.items():
        roc_rows.extend([label, f"{fa:.8g}", f"{pd:.8g}"] for fa, pd in roc.points)
    _write_csv(os.path.join(args.out_dir, "roc_points.csv"),
               ["strategy", "fa_rate", "detection_rate"], roc_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rfident", description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="global random seed")
    ap.add_argument("--out-dir", default=".", help="directory for output artifacts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="alphabet moment summary")
    p.add_argument("constellation", help="name (bpsk..64qam) or custom .json point list")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("crb-curves", help="bound sweeps over SNR, N, and modulation")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="crb_curves.csv")
    p.set_defaults(fn=cmd_crb_curves)

    p = sub.add_parser("mc-validate", help="Monte Carlo bound-attainment study")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="mc_validate.csv")
    p.set_defaults(fn=cmd_mc_validate)

    p = sub.add_parser("identifiability", help="rank/null-space diagnostics per modulation")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="identifiability.json")
    p.add_argument("--rank-tol", type=float, default=None,
                   help="relative eigenvalue threshold for the rank decision (default 1e-9)")
    p.set_defaults(fn=cmd_identifiability)

    p = sub.add_parser("fleet-sim", help="synthesize a fleet feature table")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_fleet_sim)

    p = sub.add_parser("dr-analysis", help="balanced discrimination ratios from a feature table")
    p.add_argument("features", help="feature table CSV (from fleet-sim)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="dr_table.csv")
    p.set_defaults(fn=cmd_dr_analysis)

    p = sub.add_parser("authenticate", help="two-campaign authentication experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--paper-dr", default=None,
                   help="JSON {feature: dr} table; compute weights only")
    p.set_defaults(fn=cmd_authenticate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    # route default outputs into --out-dir
    if getattr(args, "out", None) and not os.path.isabs(args.out):
        args.out = os.path.join(args.out_dir, args.out)
    try:
        return args.fn(args)
    except (ConfigError, InvalidConstellationError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficientError, np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
