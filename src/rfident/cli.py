"""Batch command-line front end.

Subcommands: moments, crb-curves, mc-validate, identifiability, fleet-sim,
dr-analysis, authenticate. Configuration comes from an optional JSON file
plus flag overrides; outputs are plot-ready CSV/JSON written atomically.
Exit codes: 0 success; 2 configuration or input error (a flag argparse
rejects, a ``ConfigError`` from a config value or an input file, a missing
file, malformed JSON); 3 a failure that depends on the data or the numerics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

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
    ConfigError,
    _db_to_linear,
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
from .signal_model import (PARAM_NAMES, HwiParams, generate_fleet, write_csv_atomic,
                           write_text_atomic)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_MODULATIONS = ("bpsk", "qpsk", "16qam")
_THETA = {"eps": 0.03, "phi_deg": 2.0, "alpha3": (0.02, 0.01)}


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# fleet-sim makes one campaign: the protocol keys without the enrollment and
# scoring ones, plus a burst count
_FLEET_SIM = {
    k: v for k, v in _fields(FleetProtocolConfig()).items()
    if k not in {"n_enroll", "n_probe", "n_bal", "n_dr_trials", "probe_acc", "n_acc_grid",
                 "ridge", "target_fa"}
} | {"n_bursts": 60}


def from_json(default, value, key: str = "config"):
    """``value``, parsed from JSON, converted to the type of ``default``.

    A dataclass instance or a dict of defaults takes a JSON object with a
    subset of its keys and converts each value by the default it replaces; a
    dataclass is then built, and its own checks judge the values. A tuple
    takes a JSON array and converts each element like the default's first
    one. A string takes only a string; a number is converted with int() or
    float() (float for a None default, which also keeps None), and an int
    default takes no float with a fractional part. Anything else raises
    ``ConfigError``.
    """
    if dataclasses.is_dataclass(default):
        return type(default)(**from_json(_fields(default), value, key))
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object")
        unknown = value.keys() - default.keys()
        if unknown:
            raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
        return {**default, **{k: from_json(default[k], v, k) for k, v in value.items()}}
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a JSON array")
        return tuple(from_json(default[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key} must be a string")
        return value
    if default is None and value is None:
        return None
    if type(default) is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key} must be an integer, got {value!r}")
    try:
        return (float if default is None else type(default))(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(args, defaults):
    """The ``--config`` file parsed against ``defaults`` by ``from_json``."""
    return from_json(defaults, _read_json(args.config) if args.config else {})


def _write_csv(path: str, header, rows) -> None:
    write_csv_atomic(path, header, rows, lineterminator="\n")


def _write_json(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _theta(theta: dict) -> HwiParams:
    if len(theta["alpha3"]) != 2:
        raise ConfigError("config key alpha3 must be a [re, im] pair")
    if not all(map(math.isfinite, (theta["eps"], theta["phi_deg"], *theta["alpha3"]))):
        raise ConfigError(f"config key theta must hold finite numbers, got {theta!r}")
    return HwiParams(eps=theta["eps"], phi=math.radians(theta["phi_deg"]),
                     alpha3=complex(*theta["alpha3"]))


def _constellation_from(name: str):
    if name.endswith(".json"):
        return load_constellation_json(name)
    return make_constellation(name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_moments(args) -> int:
    c = _constellation_from(args.constellation)
    m = moments(c.points)
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
    cfg = _load_config(args, {
        "modulations": DEFAULT_MODULATIONS, "snr_grid_db": tuple(map(float, range(0, 41, 5))),
        "n_grid": (32, 76, 256), "theta": _THETA,
    })
    p = _theta(cfg["theta"])
    rows = []
    for mod in cfg["modulations"]:
        c = _constellation_from(mod)
        m = moments(c.points)
        for n in cfg["n_grid"]:
            for snr_db in cfg["snr_grid_db"]:
                gamma = _db_to_linear(snr_db, "snr_grid_db")
                f = fim_closed_form(m, p, n, gamma)
                rep = crb_report(f)
                f_marg = marginalize_channel(c, p, n, gamma)
                rep_marg = crb_report(f_marg)
                for i, name in enumerate(PARAM_NAMES):
                    diag = f.matrix[i, i]
                    rows.append([
                        mod, f"{snr_db:g}", n, name,
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
    cfg = _load_config(args, {
        "modulation": "qpsk", "snr_grid_db": (0.0, 10.0, 20.0, 30.0, 40.0), "n": 76,
        "n_trials": 300, "theta": _THETA, "pilot_mode": "random",
    })
    report = mc_crb_validation(
        _constellation_from(cfg["modulation"]), _theta(cfg["theta"]), cfg["snr_grid_db"],
        n=cfg["n"], n_trials=cfg["n_trials"], seed=args.seed, pilot_mode=cfg["pilot_mode"],
    )
    report.to_csv(args.out)
    return EXIT_OK


def cmd_identifiability(args) -> int:
    cfg = _load_config(args, {
        "modulations": ("bpsk", "sdpsk", "qpsk", "8psk", "16qam", "64qam"), "n": 76,
        "snr_db": 20.0, "theta": _THETA,
    })
    gamma = _db_to_linear(cfg["snr_db"], "snr_db")
    p = _theta(cfg["theta"])
    out = {}
    for mod in cfg["modulations"]:
        c = _constellation_from(mod)
        f = fim_numerical(c, p, cfg["n"], gamma)
        rep, m = crb_report(f), moments(c.points)
        out[mod] = {
            "beta": m.beta,
            "rank": rep.rank,
            "predicted_rank": predicted_fim_rank(m),
            "null_basis": [list(map(float, v)) for v in rep.null_basis],
            "rho_phi_im_alpha3": coupling_rho(f, "phi", "im_alpha3"),
            "eig_ratio_phi_im_alpha3": subblock_eigenvalue_ratio(f, "phi", "im_alpha3"),
            "crb": [None if math.isinf(v) else float(v) for v in rep.crb],
        }
    _write_json(args.out, out)
    return EXIT_OK


def cmd_fleet_sim(args) -> int:
    cfg = _load_config(args, _FLEET_SIM)
    n_bursts = cfg.pop("n_bursts")
    proto = FleetProtocolConfig(**cfg)
    fleet = generate_fleet(proto.n_sats, proto.spread, seed=args.seed)
    table = simulate_campaign(fleet, proto, campaign_seed=args.seed, n_bursts=n_bursts)
    table.to_csv(os.path.join(args.out_dir, "features.csv"))
    _write_json(os.path.join(args.out_dir, "fleet.json"),
                [{"satellite_id": s, **p.as_json()} for s, p in fleet])
    return EXIT_OK


def cmd_dr_analysis(args) -> int:
    cfg = _load_config(args, {"n_bal": 30, "n_trials": 30})
    table = FeatureTable.from_csv(args.features)
    dr = balanced_dr(table, n_bal=cfg["n_bal"], n_trials=cfg["n_trials"], seed=args.seed)
    dr.to_csv(args.out)
    return EXIT_OK


def cmd_authenticate(args) -> int:
    proto = _load_config(args, FleetProtocolConfig())
    if args.paper_dr:
        drs = _read_json(args.paper_dr)
        if not isinstance(drs, dict) or not drs:
            raise ConfigError("--paper-dr must hold a non-empty JSON object {feature: dr}")
        drs = {k: from_json(0.0, v, k) for k, v in drs.items()}
        w = iwat_weights(drs, tuple(drs), mode="dr2")
        _write_json(args.out or os.path.join(args.out_dir, "weights.json"), w.as_dict())
        return EXIT_OK
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


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators from non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rfident", description=__doc__)
    ap.add_argument("--seed", type=_seed, default=0, help="global random seed (>= 0)")
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
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficientError, np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
