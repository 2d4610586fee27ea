"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import math

import numpy as np
import pytest

from coupled_completion import datagen, harness, norms, solver
from coupled_completion.baselines import coupled_cp_als
from coupled_completion.bounds import NORM_IDS, BoundParams, bound
from coupled_completion.norms import NormDescriptor
from coupled_completion.prox import spectral_norm, svt, trace_norm
from coupled_completion.solver import CoupledProblem, SolverOptions
from coupled_completion.tensor_ops import (
    ObservationMask,
    fold,
    mask_apply,
    tucker_synthesize,
    unfold,
)
from test_solver import state_at


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_prox_correctness():
    """SVT optimality on 200 random matrices against 1e5 perturbations."""
    rng = np.random.default_rng(100)
    n_perturb = 500  # x 200 matrices = 1e5 total
    worst_sub = 0.0
    worst_gap = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((m, n)) * (0.5 + 2 * rng.random())
        tau = 0.05 + 2.0 * rng.random()
        Z = svt(X, tau)

        # subgradient optimality: G in the trace-norm subdifferential at Z
        G = (X - Z) / tau
        worst_sub = max(worst_sub, spectral_norm(G) - 1.0)
        worst_sub = max(
            worst_sub,
            abs(float(np.sum(G * Z)) - trace_norm(Z)) / max(1.0, trace_norm(Z)),
        )

        # batched perturbations of bounded Frobenius norm
        base = 0.5 * np.linalg.norm(Z - X) ** 2 + tau * trace_norm(Z)
        D = rng.standard_normal((n_perturb, m, n))
        D *= (0.1 * rng.random((n_perturb, 1, 1))) / np.linalg.norm(
            D, axis=(1, 2), keepdims=True
        )
        W = Z[None] + D
        sv = np.linalg.svd(W, compute_uv=False)
        objs = 0.5 * np.linalg.norm(W - X[None], axis=(1, 2)) ** 2 + tau * sv.sum(axis=1)
        worst_gap = max(worst_gap, float(base - objs.min()))
    ok = worst_sub <= 1e-8 and worst_gap <= 1e-8
    report(1, "prox correctness", ok, f"sub={worst_sub:.2e} gap={worst_gap:.2e}")


def test_criterion_2_algebra_suite():
    """Roundtrips bit-exact, inner-product invariance, Kronecker oracle."""
    rng = np.random.default_rng(101)

    roundtrip_exact = True
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        T = rng.standard_normal(dims)
        for k in (1, 2, 3):
            roundtrip_exact &= np.array_equal(fold(unfold(T, k), k, dims), T)

    inner_dev = 0.0
    for _ in range(20):
        T = rng.standard_normal((4, 5, 6))
        S = rng.standard_normal((4, 5, 6))
        base = np.vdot(T, S)
        for k in (1, 2, 3):
            inner_dev = max(inner_dev, abs(np.vdot(unfold(T, k), unfold(S, k)) - base))

    def kron_loops(A, B):
        out = np.zeros((A.shape[0] * B.shape[0], A.shape[1] * B.shape[1]))
        for i in range(A.shape[0]):
            for j in range(A.shape[1]):
                out[
                    i * B.shape[0] : (i + 1) * B.shape[0],
                    j * B.shape[1] : (j + 1) * B.shape[1],
                ] = A[i, j] * B
        return out

    kron_dev = 0.0
    for _ in range(5):
        core = rng.standard_normal((2, 3, 2))
        U1, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        U2, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        U3, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        T = tucker_synthesize(core, U1, U2, U3)
        expected = U1 @ unfold(core, 1) @ kron_loops(U3, U2).T
        kron_dev = max(kron_dev, float(np.max(np.abs(unfold(T, 1) - expected))))

    ok = roundtrip_exact and inner_dev <= 1e-12 and kron_dev <= 1e-10
    report(2, "algebra suite", ok, f"inner={inner_dev:.2e} kron={kron_dev:.2e}")


@pytest.fixture(scope="module")
def criterion_3_pairs():
    """Criterion 3's random primal/dual pairs, each latent one with its norm bracket.

    Drawn once from ``default_rng(102)``: 334 pairs ``(T, M, T2, M2)`` for
    (O,O,O), then 334 for each of (L,L,L) and (S,S,S).  Each latent pair
    also carries the certified ``(lower, upper)`` bracket of its norm at
    ``(T, M)``, at tol 1e-4; the upper end is ``norms.evaluate``'s value.
    Both criterion-3 tests read these, so each latent pair is bracketed once.
    """
    rng = np.random.default_rng(102)
    dims = (3, 3, 3)
    cols = 2
    n_pairs = 334

    def pair():
        return (
            rng.standard_normal(dims),
            rng.standard_normal((dims[0], cols)),
            rng.standard_normal(dims),
            rng.standard_normal((dims[0], cols)),
        )

    overlapped = [pair() for _ in range(n_pairs)]
    latent = {}
    for tags in (("L", "L", "L"), ("S", "S", "S")):
        d = NormDescriptor(1, tags)
        latent[tags] = []
        for _ in range(n_pairs):
            T, M, T2, M2 = pair()
            latent[tags].append((T, M, T2, M2, norms.bracket(T, M, d, tol=1e-4)))
    return overlapped, latent


def test_criterion_3_duality_suite(criterion_3_pairs):
    """Hoelder inequality on 1e3 random primal/dual pairs, zero violations."""
    overlapped, latent = criterion_3_pairs
    violations = 0

    d_ooo = NormDescriptor(1, ("O", "O", "O"))
    for T, M, T2, M2 in overlapped:
        ip = abs(float(np.sum(T * T2) + np.sum(M * M2)))
        primal = norms.evaluate_overlapped(T, M, d_ooo)
        dual_up = norms.dual_norm_overlapped_upper(T2, M2)
        if ip > primal * dual_up * (1 + 1e-9) + 1e-12:
            violations += 1

    for tags, pairs in latent.items():
        d = NormDescriptor(1, tags)
        for T, M, T2, M2, (_, primal) in pairs:
            ip = abs(float(np.sum(T * T2) + np.sum(M * M2)))
            dual = norms.dual_norm_latent_type(T2, M2, d)
            if ip > primal * dual * (1 + 1e-9) + 1e-12:
                violations += 1

    report(3, "duality suite", violations == 0, f"violations={violations}/1002")


def test_criterion_3_latent_pairs_at_the_lower_bound(criterion_3_pairs):
    """Criterion 3's latent-norm pairs, with the certified lower end of each value.

    ``norms.evaluate`` returns the upper end of a bracket; Hoelder must hold
    at the lower end as well, which is the stricter check.
    """
    _, latent = criterion_3_pairs
    violations = 0
    for tags, pairs in latent.items():
        d = NormDescriptor(1, tags)
        for T, M, T2, M2, (lower, _) in pairs:
            ip = abs(float(np.sum(T * T2) + np.sum(M * M2)))
            dual = norms.dual_norm_latent_type(T2, M2, d)
            if ip > lower * dual * (1 + 1e-9) + 1e-12:
                violations += 1

    report(3, "duality suite at the lower bound", violations == 0, f"violations={violations}/668")


ALL_DESCRIPTORS = [
    NormDescriptor(1, tags)
    for tags in [
        ("O", "O", "O"),
        ("L", "L", "L"),
        ("S", "S", "S"),
        ("L", "O", "O"),
        ("O", "L", "O"),
        ("O", "O", "L"),
        ("S", "O", "O"),
        ("O", "S", "O"),
        ("O", "O", "S"),
    ]
]


def test_criterion_4_solver_convergence():
    """All supported descriptors converge at defaults; block updates pass
    finite-difference gradient checks."""
    rng = np.random.default_rng(103)
    dims = (10, 10, 10)
    cols = 8
    T = rng.standard_normal(dims)
    M = rng.standard_normal((dims[0], cols))
    t_picks = rng.choice(1000, size=700, replace=False)
    m_picks = rng.choice(dims[0] * cols, size=56, replace=False)
    problem = CoupledProblem(
        tensor=T,
        tensor_mask=ObservationMask(dims, np.array(np.unravel_index(t_picks, dims)).T),
        matrix=M,
        matrix_mask=ObservationMask(
            (dims[0], cols), np.array(np.unravel_index(m_picks, (dims[0], cols))).T
        ),
        coupled_mode=1,
    )
    opts = SolverOptions(lam=1.0, beta=1.0, tol_primal=1e-6, tol_dual=1e-6, max_iters=2000)
    not_converged = []
    for d in ALL_DESCRIPTORS:
        res = solver.solve(problem, d, opts)
        if not res.converged:
            not_converged.append((norms.format_descriptor(d), res.iterations))

    # finite-difference block-gradient checks at a random state
    # (block objectives are quadratic, so a large step is exact)
    h = 0.05
    worst_grad = 0.0
    for tags in (("O", "O", "O"), ("S", "O", "O"), ("L", "L", "L")):
        d = NormDescriptor(1, tags)
        lay = norms.layout(d, dims)
        srng = np.random.default_rng(5)
        # random auxiliaries z = (Y, X) and multipliers W = beta (s - z)
        X = srng.standard_normal(M.shape)
        WM = srng.standard_normal(M.shape)
        Y, W = {}, {}
        for mode, _, _ in lay.regularized_modes():
            Y[mode] = srng.standard_normal(dims)
            W[mode] = srng.standard_normal(dims)
        inputs = ({m: Y[m] + W[m] / opts.beta for m in Y}, X + WM / opts.beta)
        state = state_at(lay, opts.beta, opts.lam, inputs, (Y, X))

        def m_obj(Mt):
            val = 0.5 * np.linalg.norm(
                mask_apply(Mt - problem.matrix, problem.matrix_mask)
            ) ** 2
            val += float(np.sum(WM * Mt))
            val += 0.5 * opts.beta * np.linalg.norm(Mt - X) ** 2
            return float(val)

        solver.update_matrix(state, problem)
        M_new = state.M
        for _ in range(20):
            ix = tuple(srng.integers(0, s) for s in M_new.shape)
            orig = M_new[ix]
            M_new[ix] = orig + h
            fp = m_obj(M_new)
            M_new[ix] = orig - h
            fm = m_obj(M_new)
            M_new[ix] = orig
            worst_grad = max(worst_grad, abs((fp - fm) / (2 * h)))

        def t_obj(comps):
            total = 0.5 * np.linalg.norm(
                mask_apply(sum(comps) - problem.tensor, problem.tensor_mask)
            ) ** 2
            for mode, _, c in lay.regularized_modes():
                total += float(np.sum(W[mode] * comps[c]))
                total += 0.5 * opts.beta * np.linalg.norm(comps[c] - Y[mode]) ** 2
            return float(total)

        solver.update_tensors(state, problem)
        comps = state.components
        for c in range(lay.n_components):
            for _ in range(20):
                ix = tuple(srng.integers(0, s) for s in dims)
                orig = comps[c][ix]
                comps[c][ix] = orig + h
                fp = t_obj(comps)
                comps[c][ix] = orig - h
                fm = t_obj(comps)
                comps[c][ix] = orig
                worst_grad = max(worst_grad, abs((fp - fm) / (2 * h)))

    ok = not not_converged and worst_grad <= 1e-8
    report(
        4,
        "solver convergence",
        ok,
        f"unconverged={not_converged} grad={worst_grad:.2e}",
    )


def test_criterion_5_exact_recovery():
    """Noiseless shared low-rank instance: held-out MSE below 1e-3."""
    spec = datagen.SyntheticSpec(
        dims=(15, 15, 15),
        multilinear_rank=(2, 2, 2),
        matrix_cols=10,
        matrix_rank=2,
        shared=2,
        noise_mean=0.0,
        noise_std=0.0,
        seed=5,
    )
    rng = np.random.default_rng(5)
    T = datagen.gen_tensor(spec, rng)
    M = datagen.gen_coupled_matrix(T, spec, rng)
    t_masks = datagen.gen_masks(T.shape, datagen.MaskSpec(0.7, 0.1, 11))
    m_masks = datagen.gen_masks(M.shape, datagen.MaskSpec(0.7, 0.1, 12))
    problem = CoupledProblem(T, t_masks[0], M, m_masks[0], 1)
    d = NormDescriptor(1, ("O", "O", "O"))
    best = None
    # one warm path from the largest lambda down, as the harness fits a cell
    fits = solver.path(problem, d, np.geomspace(1e-3, 1.0, 20)[::-1], SolverOptions(tol_primal=1e-5, tol_dual=1e-5))
    for res in fits[::-1]:
        ix = t_masks[1].as_tuple()
        val = float(np.mean((T[ix] - res.tensor[ix]) ** 2))
        if best is None or val <= best[0]:
            best = (val, res)
    ix = t_masks[2].as_tuple()
    mse = float(np.mean((T[ix] - best[1].tensor[ix]) ** 2))
    report(5, "exact recovery", mse < 1e-3, f"held-out MSE={mse:.2e}")


@pytest.fixture(scope="module")
def figure2_report():
    cfg = harness.ExperimentConfig(
        norms=("1:(O,O,O)", "OTN", "SLTN", "CP"),
        synthetic=datagen.SyntheticSpec.low_noise(seed=2),
        lambda_grid=harness.LambdaGrid(1e-3, 5.0, 8, "log"),
        train_fractions=(0.3, 0.5, 0.7),
        repetitions=3,
        seed=1,
        solver=SolverOptions(tol_primal=1e-4, tol_dual=1e-4),
    )
    return harness.run(cfg)


def test_criterion_6_shared_structure_ordering(figure2_report):
    """Coupled overlapped norm beats the individual tensor norms at 30%."""
    rep = figure2_report
    assert not rep.failures()
    ooo = rep.mean_test_mse("1:(O,O,O)", 0.3)
    otn = rep.mean_test_mse("OTN", 0.3)
    sltn = rep.mean_test_mse("SLTN", 0.3)
    ok = ooo < otn and ooo < sltn
    report(
        6,
        "shared-structure ordering",
        ok,
        f"(O,O,O)={ooo:.3e} OTN={otn:.3e} SLTN={sltn:.3e}",
    )


def test_criterion_7_unbalanced_rank_ordering():
    """Mixed scaled norm wins when one mode has a much larger rank."""
    cfg = harness.ExperimentConfig(
        norms=("1:(S,O,O)", "1:(S,S,S)", "OTN", "SLTN"),
        synthetic=datagen.SyntheticSpec.low_noise(seed=2, multilinear_rank=(5, 15, 5)),
        lambda_grid=harness.LambdaGrid(1e-3, 5.0, 8, "log"),
        train_fractions=(0.3,),
        repetitions=3,
        seed=1,
        solver=SolverOptions(tol_primal=1e-4, tol_dual=1e-4),
    )
    rep = harness.run(cfg)
    assert not rep.failures()
    scores = {n: rep.mean_test_mse(n, 0.3) for n in cfg.norms}
    winner = min(scores, key=scores.get)
    report(
        7,
        "unbalanced-rank ordering",
        winner == "1:(S,O,O)",
        " ".join(f"{n}={v:.3e}" for n, v in scores.items()),
    )


def test_criterion_8_nonconvex_baseline_sanity(figure2_report):
    """CP-ALS objective is monotone and its MSE trails the convex method."""
    rng = np.random.default_rng(104)
    monotone = True
    for seed in range(3):
        T = rng.standard_normal((6, 6, 6))
        M = rng.standard_normal((6, 4))
        t_picks = rng.choice(216, size=150, replace=False)
        m_picks = rng.choice(24, size=18, replace=False)
        factors = coupled_cp_als(
            T,
            M,
            ObservationMask((6, 6, 6), np.array(np.unravel_index(t_picks, (6, 6, 6))).T),
            ObservationMask((6, 4), np.array(np.unravel_index(m_picks, (6, 4))).T),
            rank=3,
            iters=60,
            seed=seed,
        )
        monotone &= bool(np.all(np.diff(factors.objective_trace) <= 1e-12))

    rep = figure2_report
    cp = rep.mean_test_mse("CP", 0.3)
    ooo = rep.mean_test_mse("1:(O,O,O)", 0.3)
    ok = monotone and cp >= ooo
    report(8, "non-convex baseline sanity", ok, f"CP={cp:.3e} (O,O,O)={ooo:.3e}")


def test_criterion_9_risk_bound_calculators():
    base = BoundParams(
        dims=(20, 20, 20),
        matrix_cols=30,
        ranks=(5, 5, 5),
        coupled_rank=5,
    )
    from dataclasses import replace

    zero_ok = all(
        bound(nid, replace(base, ranks=(0, 0, 0), coupled_rank=0)) == 0.0
        for nid in NORM_IDS
    )
    scaling_ok = all(
        bound(nid, replace(base, samples=2)) == bound(nid, base) / 2.0
        for nid in NORM_IDS
    )
    rng = np.random.default_rng(105)
    monotone_ok = True
    for _ in range(100):
        r = int(rng.integers(0, 10))
        rc = int(rng.integers(0, 10))
        lo = replace(base, ranks=(r, r, r), coupled_rank=rc)
        hi = replace(base, ranks=(r + 1, r + 1, r + 1), coupled_rank=rc + 1)
        monotone_ok &= all(bound(nid, hi) >= bound(nid, lo) - 1e-12 for nid in NORM_IDS)
    pinned = abs(bound("OOO", base) - (60.0 + 120.0 * math.sqrt(5.0))) <= 1e-12
    ok = zero_ok and scaling_ok and monotone_ok and pinned
    report(
        9,
        "risk-bound calculators",
        ok,
        f"zero={zero_ok} scale={scaling_ok} mono={monotone_ok} pinned={pinned}",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        norms=("1:(O,O,O)", "SLTN", "CP"),
        synthetic=datagen.SyntheticSpec.low_noise(
            dims=(8, 8, 8),
            multilinear_rank=(2, 2, 2),
            matrix_cols=6,
            matrix_rank=2,
            shared=2,
            seed=9,
        ),
        lambda_grid=harness.LambdaGrid(0.01, 1.0, 3, "log"),
        train_fractions=(0.5,),
        repetitions=2,
        seed=4,
        solver=SolverOptions(tol_primal=1e-4, tol_dual=1e-4),
    )
    b1 = harness.emit_report(harness.run(cfg), tmp_path / "a")["results"].read_bytes()
    b2 = harness.emit_report(harness.run(cfg), tmp_path / "b")["results"].read_bytes()
    report(10, "determinism", b1 == b2, f"{len(b1)} bytes")
