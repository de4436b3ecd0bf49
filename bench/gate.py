"""Correctness gate: every benchmark run passes it or reports no timings.

Checks, on a check set of tasks drawn from the workload seed (a third
SeedSequence child next to run_metatrain's prior and task streams):

* binom and trunc at L=K equal full;
* binom at the workload's L equals the brute-force binom_oracle;
* imaml's result solves (I + H/lambda) x = g to within its CG tolerance
  (or the workload's tolerance, when that is looser);

and, against the measured loop itself, that a 3-iteration run_metatrain of
each kind gives the same meta_loss values as the loop's first 3 ops of that
kind. The sweep ops' own L=K check runs inside the worker, on every sweep.
Tolerances are relative: tight on the exact-HVP families, loose enough for
central-difference noise on the sine family.
"""

from dataclasses import replace

import workloads  # first: puts the checkout's src/ on sys.path

import numpy as np
from metagrad import estimators, metatrain
from metagrad.adaptation import DivergenceError, gd_adapt, validation_gradient
from metagrad.linalg import CGBreakdownError


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def check_set(wl, seed) -> list:
    """Failure messages of the estimator identities on the check set."""
    failures = []
    cfg = wl.config("binom", seed)
    init_ss, _, check_ss = np.random.SeedSequence(seed).spawn(3)
    theta = metatrain.initial_theta(cfg, np.random.default_rng(init_ss))
    est = wl.config("imaml", seed).estimator
    try:
        tasks = metatrain.sample_task_batch(cfg, np.random.default_rng(check_ss))
        for t, pair in enumerate(tasks):
            traj = gd_adapt(pair.train, theta, wl.alpha, wl.K)
            g = validation_gradient(pair.val, traj)
            full = estimators.full_meta_gradient(traj, g).estimate
            pairs = [
                ("binom(L=K) vs full", estimators.binom_meta_gradient(traj, g, wl.K).estimate, full),
                ("trunc(L=K) vs full", estimators.trunc_meta_gradient(traj, g, wl.K).estimate, full),
                (f"binom(L={wl.L}) vs binom_oracle",
                 estimators.binom_meta_gradient(traj, g, wl.L).estimate,
                 estimators.binom_oracle(traj, g, wl.L)),
            ]
            for what, got, want in pairs:
                err = _rel(got, want)
                if not err <= wl.rtol:
                    failures.append(f"task {t}: {what}: relative error {err:.3e} > {wl.rtol:.0e}")
            mg = estimators.imaml_meta_gradient(
                pair.train, traj.final, g, est.imaml_lambda, est.cg_tol, est.cg_iters
            )
            x = mg.estimate
            residual = _rel(x + pair.train.hvp(traj.final, x) / est.imaml_lambda, g)
            tol = max(est.cg_tol, wl.rtol)
            if not (mg.converged and residual <= tol):
                failures.append(f"task {t}: imaml residual {residual:.3e} > {tol:.0e} (converged={mg.converged})")
    except (DivergenceError, CGBreakdownError) as exc:
        failures.append(f"check set: {type(exc).__name__}: {exc}")
    return failures


def _replay(cfg, iterations):
    records, _ = metatrain.run_metatrain(replace(cfg, iterations=iterations))
    return [r.meta_loss for r in records]


def replay(wl, seed, losses) -> list:
    """Compare each kind's leading losses from the loop with run_metatrain's."""
    failures = []
    for kind in workloads.STEP_KINDS:
        got = losses[kind]
        cfg = wl.config(kind, seed)
        # run_metatrain stops at the first failed iteration; the loop goes on
        n = got.index(None) if None in got else len(got)
        want = _replay(cfg, n)
        if got[:n] != want:
            failures.append(f"{kind}: loop losses {got[:n]} != run_metatrain {want}")
        if n < len(got):
            try:
                _replay(cfg, n + 1)
                failures.append(f"{kind}: op {n} failed in the loop but not in run_metatrain")
            except (DivergenceError, CGBreakdownError):
                pass
    return failures
