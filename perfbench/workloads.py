"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed when constructed
(that is the set-up time), then runs units of work: run(k) executes unit k
through the package's public functions and times it, and check(unit)
applies the correctness gate to what it produced.  Only the generated
spec, datasets and checkpoint reach the program, never the seed.

- phase-grid: a 6-trial slice of the reduced phase grid through run_grid
  with one worker per CPU; every slice has all three d and both
  algorithms, the seed picks the order of the (mu, grid seed) cells.
- tracked-sam: minibatch SAM at d=500 with the coefficient tracker and
  the deactivation recorder attached, then the `samdyn check` battery and
  the tracker-against-oracle cross-check at every recorded state.
- wide-data: gen -> save -> load -> concentration report -> basis ->
  oracle on a d=20000, n=200, P=8 dataset and a checkpoint whose drift lies
  in the span of the data.
"""

import dataclasses
import math
import random
import shutil
from time import perf_counter

import numpy as np

import samdyn.cli  # noqa: F401  (config and cli load once per run, inside set-up)
from samdyn import checks, data, decomposition, experiments, network, optim

import gates
from common import REFERENCE, nproc

_SEED_TAG = 0x5A4D  # separates benchmark streams from the program's own derivations


@dataclasses.dataclass
class Unit:
    """One timed unit of work and what the gate needs to judge it."""

    ops: int            # operations the throughput counts
    wall_s: float       # wall time of the timed program calls
    outputs: tuple
    info: dict = dataclasses.field(default_factory=dict)
    error: str = ""     # exception raised by the program, if any


class PhaseGrid:
    name = "phase-grid"

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.spec = experiments.phase_grid_spec(reduced=True)
        self.reference = gates.load_reference(REFERENCE)
        slices = [(mu, s) for mu in self.spec.mu_values for s in self.spec.seeds]
        random.Random(seed).shuffle(slices)
        self.slices = [dataclasses.replace(self.spec, mu_values=(mu,), seeds=(s,))
                       for mu, s in slices]
        self.jobs = nproc()

    def run(self, k: int, jobs: int | None = None) -> Unit:
        spec = self.slices[k % len(self.slices)]
        out = self.workdir / f"grid{k}"
        try:
            start = perf_counter()
            results = experiments.run_grid(spec, out, jobs=jobs or self.jobs)
            wall = perf_counter() - start
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Unit(ops=len(results), wall_s=wall, outputs=(results,),
                    info={"mu": spec.mu_values[0], "seed": spec.seeds[0]})

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        (results,) = unit.outputs
        failures = gates.phase_grid(results, self.reference, self.spec.n_test)
        return len(results), failures

    def traced(self, session) -> dict:
        """Pooled and serial untraced passes over slice 0, then a serial
        traced pass: pool workers do not see wrappers installed here."""
        pooled = session.unit(0)
        serial = session.unit(0, jobs=1)
        traced, tracer = session.traced(lambda: session.unit(0, jobs=1))
        trial_s = sum(end - start for name, _p, start, end, _c, _a in tracer.spans
                      if name == "experiments.run_trial")
        return {"tracer": tracer,
                "pool_speedup": trial_s / pooled.wall_s if pooled.ops else 0.0,
                "overhead_frac": traced.wall_s / serial.wall_s - 1.0 if serial.ops else 0.0}


class TrackedSam:
    name = "tracked-sam"
    d, n, B, m, P, p = 500, 64, 8, 10, 2, 0.1
    sigma_p, mu_norm, eta = 1.0, 2.0, 0.05
    epochs, record_every = 100, 4
    datasets = 8  # distinct runs drawn in set-up; units cycle through them

    def __init__(self, seed: int, workdir):
        params = data.DataParams(d=self.d, P=self.P, sigma_p=self.sigma_p, p=self.p,
                                 mu_norm=self.mu_norm)
        self.sigma_0 = 1.0 / (self.P * self.sigma_p * math.sqrt(self.d))
        self.net = network.NetConfig(m=self.m, d=self.d, init="gaussian",
                                     sigma_0=self.sigma_0)
        tau = checks.scaled_tau(1.0, self.m, self.B, self.P, self.sigma_p, self.d)
        mu = data.make_signal(self.d, self.mu_norm)
        self.runs = []
        for child in np.random.SeedSequence((_SEED_TAG, 1, seed)).spawn(self.datasets):
            data_ss, train_ss = child.spawn(2)
            ds = data.gen_dataset(params, mu, self.n, seed=data_ss)
            cfg = optim.TrainConfig(
                eta=self.eta, B=self.B, epochs=self.epochs, algo="sam", tau=tau,
                seed=int(train_ss.generate_state(1)[0]), record_every=self.record_every,
                snapshot_weights=True)
            self.runs.append((ds, data.stack(ds), cfg))

    def run(self, k: int) -> Unit:
        ds, arrays, cfg = self.runs[k % len(self.runs)]
        tracker = decomposition.CoeffTracker(ds, self.m, keep_history=True, check=True)
        recorder = checks.SamDeactivationRecorder(arrays.y)
        start = perf_counter()
        traj = optim.train(ds, self.net, cfg, hooks=(tracker, recorder))
        trained = perf_counter()
        thr = checks.activation_threshold(self.sigma_0, self.sigma_p, self.d)
        consts = checks.TheoryConstants.from_run(
            traj.w0, arrays.mu, arrays.xi, self.P, self.sigma_p, t_star=max(cfg.epochs, 3))
        checks.check_set_monotonicity(traj, arrays.y, thr)
        checks.check_logit_ratio(traj, consts.c1_logit)
        checks.check_coeff_bounds(tracker.history, consts, self.d)
        checks.check_good_batches(traj.schedules, arrays.y, arrays.y_hat, cfg.B)
        checks.check_sam_deactivation(recorder)
        basis = decomposition.basis_from_dataset(ds)
        pairs = [(f"({r.t},{r.b})", tracker.state_at(r.t, r.b).coeffs,
                  decomposition.oracle_solve(r.weights, traj.w0, basis))
                 for r in traj.records]
        verified = perf_counter()
        steps = cfg.epochs * (self.n // cfg.B)
        c = tracker.coeffs
        coeff_bytes = c.gamma.nbytes + c.zeta.nbytes + c.omega.nbytes
        return Unit(
            ops=steps, wall_s=verified - start, outputs=(pairs, arrays.y),
            info={"train_s": trained - start, "verify_s": verified - trained,
                  "records": len(pairs),
                  "history_mb": len(tracker.history) * coeff_bytes / 1e6,
                  "deactivation_events": recorder.events,
                  "deactivation_violations": recorder.violations})

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        return 1, gates.tracked_sam(*unit.outputs)

    def traced(self, session) -> dict:
        plain = session.unit(0)
        traced, tracer = session.traced(lambda: session.unit(0))
        return {"tracer": tracer,
                "overhead_frac": traced.wall_s / plain.wall_s - 1.0 if plain.ops else 0.0,
                **{k: traced.info.get(k, 0) for k in (
                    "history_mb", "deactivation_events", "deactivation_violations")}}


class WideData:
    name = "wide-data"
    d, n, P, p, m = 20000, 200, 8, 0.1, 10
    sigma_p, mu_norm = 1.0, 2.0
    traced_units = 3

    def __init__(self, seed: int, workdir):
        self.path = workdir / "dataset.npz"
        self.params = data.DataParams(d=self.d, P=self.P, sigma_p=self.sigma_p, p=self.p,
                                      mu_norm=self.mu_norm)
        self.mu = data.make_signal(self.d, self.mu_norm)
        data_ss, ckpt_ss = np.random.SeedSequence((_SEED_TAG, 2, seed)).spawn(2)
        self.data_seed = int(data_ss.generate_state(1)[0])
        arrays = data.stack(data.gen_dataset(self.params, self.mu, self.n, self.data_seed))
        # checkpoint: fan-in init plus a drift inside span{mu, xi_1..xi_n}
        rng = np.random.default_rng(ckpt_ss)
        bound = 1.0 / math.sqrt(self.d)
        self.w0 = rng.uniform(-bound, bound, size=(2, self.m, self.d))
        coef = rng.normal(0.0, 1.0 / self.d, size=(2 * self.m, self.n + 1))
        drift = np.outer(coef[:, 0], arrays.mu) + coef[:, 1:] @ arrays.xi
        self.w = self.w0 + drift.reshape(self.w0.shape)

    def run(self, k: int) -> Unit:
        start = perf_counter()
        ds = data.gen_dataset(self.params, self.mu, self.n, self.data_seed)
        data.save_dataset(self.path, ds)
        loaded = data.load_dataset(self.path)
        report = data.concentration_report(loaded)
        basis = decomposition.basis_from_dataset(loaded)
        sol = decomposition.oracle_solve(self.w, self.w0, basis)
        wall = perf_counter() - start
        return Unit(ops=1, wall_s=wall, outputs=(ds, loaded, sol, report))

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        return 1, gates.wide_data(*unit.outputs)

    def traced(self, session) -> dict:
        plain_s = sum(session.unit(k).wall_s for k in range(self.traced_units))
        traced_s, tracer = session.traced(
            lambda: sum(session.unit(k).wall_s for k in range(self.traced_units)))
        return {"tracer": tracer, "overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0}


WORKLOADS = {w.name: w for w in (PhaseGrid, TrackedSam, WideData)}
