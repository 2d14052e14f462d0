"""Command-line entry point.

Subcommands: gen-data, train, grid, check, decompose.  Every run writes a
manifest.json into its output directory before any work starts, holding
the resolved config, tool version and base seed; runs are bit-reproducible
from it.  A refused run (a bad config or seed, a checkpoint that does not
fit its dataset) exits 2 before it writes anything.  train and check share
one run (_train_run); check adds a SamDeactivationRecorder and writes the
checkers' report in place of the run's tables.  No subcommand writes
outside its --out target.
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


def _train_run(args, outputs, check: bool = False):
    """The run train and check share: load the config, write the manifest,
    derive the data and training seeds from the run's seed, build the
    dataset and train it with a CoeffTracker, and for check also a
    SamDeactivationRecorder.  Returns the output directory, the setup, the
    dataset, the trajectory and the hooks."""
    setup = load_train_setup(args.config, seed_override=args.seed)
    out = Path(args.out)
    write_manifest(out, args.command, setup.raw, setup.train.seed, outputs)
    data_ss, train_ss = np.random.SeedSequence((0x5D, setup.train.seed)).spawn(2)
    cfg = dataclasses.replace(setup.train, seed=int(train_ss.generate_state(1)[0]))
    mu = make_signal(setup.params.d, setup.params.mu_norm)
    ds = gen_dataset(setup.params, mu, setup.n, seed=data_ss)
    hooks = (CoeffTracker(ds, setup.net.m),) + ((SamDeactivationRecorder(ds.y),) if check else ())
    return out, setup, ds, train(ds, setup.net, cfg, hooks=hooks), hooks


def _cmd_train(args) -> int:
    out, setup, ds, traj, (tracker,) = _train_run(
        args, ["metrics.csv", "dataset.npz", "w0.npz", "w_final.npz", "coeffs.csv"])
    save_dataset(out / "dataset.npz", ds)
    write_metrics_csv(out / "metrics.csv", traj)
    save_weights(out / "w0.npz", traj.w0)
    save_weights(out / "w_final.npz", traj.w_final)
    write_coeff_csv(out / "coeffs.csv", tracker.history)
    print(
        f"trained {setup.train.algo} for {setup.train.epochs} epochs: "
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
    out, setup, ds, traj, (tracker, deact) = _train_run(args, ["report.csv"], check=True)
    thr = activation_threshold(effective_sigma0(setup.net), setup.params.sigma_p, setup.params.d)
    consts = TheoryConstants.from_run(
        traj.w0, ds.mu, ds.xi, setup.params.P, setup.params.sigma_p,
        t_star=max(setup.train.epochs, 3),
    )
    reports = [
        check_set_monotonicity(traj, ds.y, thr),
        check_logit_ratio(traj, consts.c1_logit),
        *check_coeff_bounds(tracker.history, consts, setup.params.d),
        check_good_batches(traj.schedules, ds.y, ds.y_hat, setup.train.B),
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
    if not (w.shape == w0.shape and w.ndim == 3 and w.shape[::2] == (2, ds.params.d)):
        raise ValueError(f"checkpoints {args.weights} {w.shape} and {args.weights0} {w0.shape} "
                         f"must share one shape (2, m, d) with d = {ds.params.d} of {args.data}")
    basis = basis_from_dataset(ds)
    basis.checked_cond  # refuses a degenerate basis before any output
    out = Path(args.out)
    write_manifest(
        out,
        "decompose",
        {"data": str(args.data), "weights": str(args.weights), "weights0": str(args.weights0)},
        None,
        ["decomposition.csv", "rho.npz"],
    )
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

    def config_command(name, func, help, seed_help="override the config seed"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.set_defaults(func=func)
        return p

    config_command("train", _cmd_train, "run one training run from a config file")
    r = config_command("grid", _cmd_grid, "run a phase-transition grid", "override base_seed")
    r.add_argument("--jobs", type=int, default=available_cpus(),
                   help="worker processes (default: the CPUs this process may run on)")
    r.add_argument("--resume", action="store_true")
    config_command("check", _cmd_check, "train and run the structural checkers")

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
