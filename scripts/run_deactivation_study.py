#!/usr/bin/env python3
"""Calibrate the perturbation radius for noise-deactivation and verify it.

Reads the run, its data, network, step size eta and batch size B, from a
train config (its SAMDYN_ overrides applied; its algo, tau, epochs and
seed are not read).  Bisects the constant c in
tau = c m sqrt(B)/(P sigma_p sqrt(d)) until the ascent perturbation
deactivates every same-class activated filter over the whole first stage,
then re-verifies at a 1.25x safety margin across --seeds fresh seeds and
prints the violation counts per radius.

    python scripts/run_deactivation_study.py [--config configs/check_demo.cfg] [--seeds 10]
"""

import argparse
import math
from pathlib import Path

from samdyn.checks import calibrate_sam_tau, deactivation_counts, first_stage_epochs, scaled_tau
from samdyn.config import load_train_setup

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "check_demo.cfg"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    setup = load_train_setup(args.config)
    params, n, net, eta, B = setup.params, setup.n, setup.net, setup.train.eta, setup.train.B

    t1 = first_stage_epochs(net.m, B, n, eta, params.mu_norm)
    print(f"first stage: {t1:.1f} epochs, sigma_0 = {net.sigma_0}")

    c_cal, tau_cal = calibrate_sam_tau(params, n, net, eta, B, seeds=(0, 1, 2))
    print(f"calibrated constant c = {c_cal:.4f} (tau = {tau_cal:.4f})")

    epochs = int(math.ceil(t1))
    for c in (0.5 * c_cal, c_cal, 1.25 * c_cal):
        tau = scaled_tau(c, net.m, B, params.P, params.sigma_p, params.d)
        events, violations = deactivation_counts(
            params, n, net, eta, B, tau,
            [(3000 + s, s) for s in range(args.seeds)], epochs, t1)
        rate = violations / events if events else 0.0
        print(f"c = {c:.4f} (tau = {tau:.4f}): {violations}/{events} violations "
              f"(rate {rate:.5f}) over {args.seeds} seeds")


if __name__ == "__main__":
    main()
