"""Command-line entry point.

Subcommands: gen-data, train, grid, check, decompose.  Every run writes a
manifest.json into its output directory before any work starts, holding
the resolved config, tool version and base seed; runs are bit-reproducible
from it.  No subcommand writes outside its --out target.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    SamDeactivationRecorder,
    TheoryConstants,
    activation_threshold,
    check_coeff_bounds,
    check_good_batches,
    check_logit_ratio,
    check_sam_deactivation,
    check_set_monotonicity,
    effective_sigma0,
    write_report_csv,
)
from .config import ConfigError, load_grid_spec, load_train_setup, write_manifest
from .data import (
    DataParams,
    available_cpus,
    check_header_seed,
    concentration_report,
    gen_dataset,
    load_dataset,
    make_signal,
    save_dataset,
)
from .decomposition import (COEFF_COLUMNS, CoeffTracker, basis_from_dataset, coeff_rows,
                            oracle_solve, write_coeff_csv)
from .experiments import check_grid_run, run_grid
from .network import load_weights, save_weights
from .optim import train, write_metrics_csv
from .tables import write_csv


def _cmd_gen_data(args) -> int:
    check_header_seed(args.seed)  # before any work, so a refusal leaves nothing
    params = DataParams(
        d=args.d, P=args.P, sigma_p=args.sigma_p, p=args.p, mu_norm=args.mu_norm
    )
    mu = make_signal(args.d, args.mu_norm)
    ds = gen_dataset(params, mu, args.n, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, ds)
    rep = concentration_report(ds)
    write_manifest(
        out.parent,
        "gen-data",
        {
            "d": args.d, "P": args.P, "n": args.n, "sigma_p": args.sigma_p,
            "p": args.p, "mu_norm": args.mu_norm, "seed": args.seed,
        },
        args.seed,
        [out],
    )
    status = "ok" if rep.ok else "concentration violations present"
    print(f"wrote {out} ({args.n} samples, d={args.d}); geometry: {status}")
    return 0


def _derive_run_seeds(base_seed: int) -> tuple:
    ss = np.random.SeedSequence((0x5D, base_seed))
    data_ss, train_ss = ss.spawn(2)
    return data_ss, int(train_ss.generate_state(1)[0])


def _cmd_train(args) -> int:
    setup = load_train_setup(args.config, seed_override=args.seed)
    out = Path(args.out)
    write_manifest(out, "train", setup.raw, setup.train.seed,
                   ["metrics.csv", "dataset.npz", "w0.npz", "w_final.npz", "coeffs.csv"])
    data_ss, train_seed = _derive_run_seeds(setup.train.seed)
    cfg = dataclasses.replace(setup.train, seed=train_seed)
    mu = make_signal(setup.params.d, setup.params.mu_norm)
    ds = gen_dataset(setup.params, mu, setup.n, seed=data_ss)
    tracker = CoeffTracker(ds, setup.net.m)
    traj = train(ds, setup.net, cfg, hooks=(tracker,))
    save_dataset(out / "dataset.npz", ds)
    write_metrics_csv(out / "metrics.csv", traj)
    save_weights(out / "w0.npz", traj.w0)
    save_weights(out / "w_final.npz", traj.w_final)
    write_coeff_csv(out / "coeffs.csv", tracker.history)
    print(
        f"trained {cfg.algo} for {cfg.epochs} epochs: "
        f"final loss {traj.records[-1].train_loss:.6f} -> {out}"
    )
    return 0


def _cmd_grid(args) -> int:
    spec, raw = load_grid_spec(args.config, seed_override=args.seed)
    out = Path(args.out)
    # a refused run leaves an existing manifest as it was
    check_grid_run(spec, out, jobs=args.jobs, resume=args.resume)
    write_manifest(out, "grid", raw, spec.base_seed,
                   ["results.csv", "heatmap_<algo>.csv", "heatmap_<algo>.pgm", "timings.csv"])
    results = run_grid(spec, out, jobs=args.jobs, resume=args.resume)
    failed = sum(r.failed for r in results)
    print(f"grid complete: {len(results)} trials, {failed} failed -> {out / 'results.csv'}")
    return 0 if failed == 0 else 1


def _cmd_check(args) -> int:
    setup = load_train_setup(args.config, seed_override=args.seed)
    out = Path(args.out)
    write_manifest(out, "check", setup.raw, setup.train.seed, ["report.csv"])
    data_ss, train_seed = _derive_run_seeds(setup.train.seed)
    cfg = dataclasses.replace(setup.train, seed=train_seed)
    mu = make_signal(setup.params.d, setup.params.mu_norm)
    ds = gen_dataset(setup.params, mu, setup.n, seed=data_ss)
    tracker = CoeffTracker(ds, setup.net.m)
    deact = SamDeactivationRecorder(ds.y)
    traj = train(ds, setup.net, cfg, hooks=(tracker, deact))

    thr = activation_threshold(effective_sigma0(setup.net), setup.params.sigma_p, setup.params.d)
    consts = TheoryConstants.from_run(
        traj.w0, ds.mu, ds.xi, setup.params.P, setup.params.sigma_p,
        t_star=max(cfg.epochs, 3),
    )
    reports = [
        check_set_monotonicity(traj, ds.y, thr),
        check_logit_ratio(traj, consts.c1_logit),
        *check_coeff_bounds(tracker.history, consts, setup.params.d),
        check_good_batches(traj.schedules, ds.y, ds.y_hat, cfg.B),
        check_sam_deactivation(deact),
    ]
    write_report_csv(out / "report.csv", reports)
    for r in reports:
        flag = "ok" if r.violations == 0 else f"{r.violations}/{r.total} violations"
        print(f"{r.check}: {flag} (worst {r.worst_case_value:.6g})")
    return 0


def _cmd_decompose(args) -> int:
    ds = load_dataset(args.data)
    w = load_weights(args.weights)
    w0 = load_weights(args.weights0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(
        out,
        "decompose",
        {"data": str(args.data), "weights": str(args.weights), "weights0": str(args.weights0)},
        None,
        ["decomposition.csv", "rho.npz"],
    )
    basis = basis_from_dataset(ds)
    sol = oracle_solve(w, w0, basis)
    zeta = np.where(sol.rho >= 0, sol.rho, 0.0)
    omega = np.where(sol.rho <= 0, sol.rho, 0.0)
    write_csv(out / "decomposition.csv", COEFF_COLUMNS, coeff_rows(sol.gamma, zeta, omega))
    np.savez(out / "rho.npz", gamma=sol.gamma, rho=sol.rho, residual=sol.residual)
    print(f"decomposed {args.weights}: projection residual {sol.residual:.3e} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samdyn",
        description="Patch-model training dynamics: data generation, SGD/SAM training, "
        "signal-noise decomposition, structural checks, phase-transition grids.",
    )
    parser.add_argument("--version", action="version", version=f"samdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate and save a dataset")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--P", type=int, default=2)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma-p", dest="sigma_p", type=float, default=1.0)
    g.add_argument("--p", type=float, default=0.0)
    g.add_argument("--mu-norm", dest="mu_norm", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output .npz path")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="run one training run from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None, help="override the config seed")
    t.set_defaults(func=_cmd_train)

    r = sub.add_parser("grid", help="run a phase-transition grid")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=None, help="override base_seed")
    r.add_argument("--jobs", type=int, default=available_cpus(),
                   help="worker processes (default: the CPUs this process may run on)")
    r.add_argument("--resume", action="store_true")
    r.set_defaults(func=_cmd_grid)

    c = sub.add_parser("check", help="train and run the structural checkers")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(func=_cmd_check)

    d = sub.add_parser("decompose", help="least-squares decomposition of a checkpoint")
    d.add_argument("--data", required=True, help="dataset .npz (gen-data or train output)")
    d.add_argument("--weights", required=True, help="current weights .npz")
    d.add_argument("--weights0", required=True, help="initial weights .npz")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
