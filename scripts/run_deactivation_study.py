#!/usr/bin/env python3
"""Calibrate the perturbation radius for noise-deactivation and verify it.

Bisects the constant c in tau = c m sqrt(B)/(P sigma_p sqrt(d)) until the
ascent perturbation deactivates every same-class activated filter over the
whole first stage, then re-verifies at a 1.25x safety margin across fresh
seeds and prints the violation counts per radius.

    python scripts/run_deactivation_study.py
"""

import argparse
import math

from samdyn.checks import calibrate_sam_tau, deactivation_counts, first_stage_epochs, scaled_tau
from samdyn.data import DataParams
from samdyn.network import NetConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3000)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--B", type=int, default=8)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--mu-norm", type=float, default=3.0)
    ap.add_argument("--eta", type=float, default=2e-4)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    params = DataParams(d=args.d, P=2, sigma_p=1.0, p=0.0, mu_norm=args.mu_norm)
    sigma_0 = 1.0 / (params.P * params.sigma_p * math.sqrt(args.d))
    net = NetConfig(m=args.m, d=args.d, init="gaussian", sigma_0=sigma_0)
    t1 = first_stage_epochs(args.m, args.B, args.n, args.eta, args.mu_norm)
    print(f"first stage: {t1:.1f} epochs, sigma_0 = {sigma_0:.5f}")

    c_cal, tau_cal = calibrate_sam_tau(params, args.n, net, args.eta, args.B,
                                       seeds=(0, 1, 2))
    print(f"calibrated constant c = {c_cal:.4f} (tau = {tau_cal:.4f})")

    epochs = int(math.ceil(t1))
    for c in (0.5 * c_cal, c_cal, 1.25 * c_cal):
        tau = scaled_tau(c, args.m, args.B, params.P, params.sigma_p, args.d)
        events, violations = deactivation_counts(
            params, args.n, net, args.eta, args.B, tau,
            [(3000 + s, s) for s in range(args.seeds)], epochs, t1)
        rate = violations / events if events else 0.0
        print(f"c = {c:.4f} (tau = {tau:.4f}): {violations}/{events} violations "
              f"(rate {rate:.5f}) over {args.seeds} seeds")


if __name__ == "__main__":
    main()
