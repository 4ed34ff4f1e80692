import math
from dataclasses import replace

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.actuation import ActuationProfile
from cdcrdyn.galerkin import ModalState, assemble_state_fields, stepper
from cdcrdyn.kinematics import lambda_boundary, lambda_substituted
from cdcrdyn.records import constrained_solve

TWO_PI = 2 * math.pi
L, E, I, A, W = 0.4, 2e9, 1.26e-11, 1.26e-5, 0.11


@pytest.fixture(scope="module")
def asm_raw1(case1_noload, raw1, grid):
    return cd.make_assembly(case1_noload, raw1, grid)


@pytest.fixture(scope="module")
def asm_raw2(case1, raw2, grid):
    return cd.make_assembly(case1, raw2, grid)


# -- fine-grid trapezoid oracle (independent of the cumulative-pass assembly) --

def _oracle_fields_single(c, c_t, model, basis, nf=20001):
    s = np.linspace(0.0, model.length, nf)
    h = s[1] - s[0]
    phi = basis.eval(s)
    theta = phi @ c
    theta_t = phi @ c_t
    sn, cs = np.sin(theta), np.cos(theta)
    a_n = model.eval_A(s)

    def cum(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * h, axis=0)
        return out

    def bwd(y):
        f = cum(y)
        return f[-1] - f

    wtr = np.full(nf, h)
    wtr[0] = wtr[-1] = h / 2
    ps = cum(phi * sn[:, None])
    pc = cum(phi * cs[:, None])
    rs = bwd(a_n[:, None] * ps)
    rc = bwd(a_n[:, None] * pc)
    m = basis.order
    k_mat = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            k_mat[i, j] = wtr @ ((rs[:, i] * sn + rc[:, i] * cs) * phi[:, j])
    tt2 = theta_t**2
    j_s = bwd(a_n * cum(tt2 * cs))
    j_c = bwd(a_n * cum(tt2 * sn))
    h_vec = phi.T @ (wtr * (sn * j_s - cs * j_c))
    qx, qy = model.cumulative_load(s)
    f_q = phi.T @ (wtr * (qy * cs - qx * sn))
    return k_mat, h_vec, f_q


def _oracle_fields(c, c_t, model, basis):
    # Richardson-extrapolated trapezoid: h is a near-cancelling difference of
    # two large double integrals, so the plain O(h^2) rule is not accurate
    # enough relative to h's own scale
    coarse = _oracle_fields_single(c, c_t, model, basis, nf=10001)
    fine = _oracle_fields_single(c, c_t, model, basis, nf=20001)
    return tuple((4 * f - co) / 3 for f, co in zip(fine, coarse))


def test_mass_matrix_monomial_closed_form(case1, grid):
    basis = cd.ModalBasis(3, L, "raw_monomial")
    mass = cd.assemble_mass(case1, basis, grid)
    rho = case1.material.density
    for i in range(3):
        for j in range(3):
            assert mass[i, j] == pytest.approx(rho * I * L / (i + j + 3), rel=1e-12)
    assert np.abs(mass - mass.T).max() <= 1e-14 * np.abs(mass).max()


def test_mass_matrix_m1(case1, grid, raw1):
    mass = cd.assemble_mass(case1, raw1, grid)
    assert mass[0, 0] == pytest.approx(case1.material.density * I * L / 3, rel=1e-12)


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_mass_spd_all_cases(case_id, m):
    model = cd.build_case_model(case_id)
    basis = cd.ModalBasis(m, model.length)
    grid = cd.make_quadrature(16, 5, model.length)
    mass = cd.assemble_mass(model, basis, grid)
    np.linalg.cholesky(mass)  # raises if not SPD


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
@pytest.mark.parametrize("m, kind", [(1, "orthonormal"), (4, "orthonormal"),
                                     (6, "orthonormal"), (10, "orthonormal"),
                                     (6, "raw_monomial")])
def test_assembly_basis_pass_matches_standalone_calls(case_id, m, kind):
    model = cd.build_case_model(case_id)
    basis = cd.ModalBasis(m, model.length, kind)
    grid = cd.make_quadrature(16, 5, model.length)
    asm = cd.make_assembly(model, basis, grid)
    for got, want in ((asm.phi, basis.eval(grid.nodes)), (asm.dphi, basis.deriv(grid.nodes)),
                      (asm.phi_L, basis.eval(model.length)),
                      (asm.dphi_L, basis.deriv(model.length))):
        assert np.array_equal(got, want)
        assert got.strides == want.strides    # same memory layout, same BLAS path
    assert np.array_equal(asm.mass, cd.assemble_mass(model, basis, grid))


def test_make_assembly_takes_drag_only(case1, raw2, grid):
    # drag is the one damping law; an undamped run is damping_coeff = 0
    with pytest.raises(cd.ConfigurationError, match="damping_coeff = 0"):
        cd.make_assembly(case1, raw2, grid, "none")


def test_coupling_straight_closed_form(asm_raw1):
    # theta = 0, constant A, raw m=1: K = A L^3 / 20
    k_mat = cd.assemble_K(np.zeros(1), asm_raw1)
    assert k_mat[0, 0] == pytest.approx(A * L**3 / 20, rel=1e-10)


def test_coupling_linear_in_area(case1, raw2, grid):
    doubled_area = cd.GeometryProfile.constant(2 * A)
    model2 = cd.RobotModel(length=case1.length, profile_I=case1.profile_I,
                           profile_A=doubled_area, profile_W=case1.profile_W,
                           material=case1.material, load=case1.load)
    asm_a = cd.make_assembly(case1, raw2, grid)
    asm_b = cd.make_assembly(model2, raw2, grid)
    c = np.array([0.4, -0.2])
    assert np.allclose(2 * cd.assemble_K(c, asm_a), cd.assemble_K(c, asm_b), rtol=1e-12)


def test_assembly_matches_bruteforce_oracle(case1, raw2, asm_raw2, rng):
    for _ in range(20):
        c = rng.normal(0.0, 0.5, 2)
        c_t = rng.normal(0.0, 1.0, 2)
        k_o, h_o, fq_o = _oracle_fields(c, c_t, case1, raw2)
        k_mat = cd.assemble_K(c, asm_raw2)
        h_vec = cd.assemble_h(c, c_t, asm_raw2)
        f_q = cd.assemble_fQ(c, asm_raw2)
        assert np.abs(k_mat - k_o).max() <= 1e-8 * np.abs(k_o).max()
        assert np.abs(f_q - fq_o).max() <= 1e-8 * np.abs(fq_o).max()
        scale = max(np.abs(h_o).max(), 1e-12)
        assert np.abs(h_vec - h_o).max() <= 1e-8 * scale
        assert np.all(np.isfinite(k_mat))


def _reference_state_fields(theta, theta_t, asm):
    # eight separate cumulative passes: the unfused form of assemble_state_fields
    grid = asm.grid
    wq = grid.weights
    sn = np.sin(theta)
    cs = np.cos(theta)
    a_n = asm.model.eval_A(grid.nodes)
    ps = grid.fwd @ (asm.phi * sn[:, None])
    pc = grid.fwd @ (asm.phi * cs[:, None])
    rs = grid.bwd @ (a_n[:, None] * ps)
    rc = grid.bwd @ (a_n[:, None] * pc)
    coupling = rs.T @ (asm.phi * (wq * sn)[:, None]) + rc.T @ (asm.phi * (wq * cs)[:, None])
    tt2 = np.asarray(theta_t) ** 2
    j_s = grid.bwd @ (a_n * (grid.fwd @ (tt2 * cs)))
    j_c = grid.bwd @ (a_n * (grid.fwd @ (tt2 * sn)))
    coriolis = asm.phi.T @ (wq * (sn * j_s - cs * j_c))
    f_q = asm.phi.T @ (wq * (asm.qy_nodes * cs - asm.qx_nodes * sn))
    c_damp = asm.model.material.damping_coeff
    damping = c_damp * (ps.T @ (wq[:, None] * ps) + pc.T @ (wq[:, None] * pc))
    return coupling, coriolis, f_q, damping


# drag at the rig's coefficient, an undamped run (damping_coeff = 0), and the
# retired pointwise law, which assembly refuses
DAMPING = ["drag", "pointwise", "none"]


def _damped_assembly(case_id, m, damping):
    # the case's assembly, or None for "pointwise" once its refusal is checked
    model = cd.build_case_model(case_id)
    basis, grid = cd.ModalBasis(m, model.length), cd.make_quadrature(16, 5, model.length)
    if damping == "pointwise":
        with pytest.raises(cd.ConfigurationError, match="damping_coeff = 0"):
            cd.make_assembly(model, basis, grid, damping)
        return None
    c_damp = cd.geometry.BASE_DAMPING if damping == "drag" else 0.0
    model = replace(model, material=replace(model.material, damping_coeff=c_damp))
    return cd.make_assembly(model, basis, grid)


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
@pytest.mark.parametrize("m", [1, 6, 10])
@pytest.mark.parametrize("damping_model", DAMPING)
def test_fused_state_fields_match_reference(case_id, m, damping_model, rng):
    asm = _damped_assembly(case_id, m, damping_model)
    if asm is None:
        return
    for _ in range(3):
        theta = asm.phi @ rng.normal(0.0, 1.0, m)
        theta_t = asm.phi @ rng.normal(0.0, 5.0, m)
        fused = assemble_state_fields(theta, theta_t, asm)
        for got, ref in zip(fused, _reference_state_fields(theta, theta_t, asm)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _reference_system(c, c_t, asm, dt, fidelity):
    # assemble_state_fields with the step algebra, term by term
    theta, theta_t = asm.phi @ c, asm.phi @ c_t
    coupling, coriolis, f_q, damping = assemble_state_fields(theta, theta_t, asm)
    rho = asm.model.material.density
    lhs = asm.mass + rho * coupling + dt * damping
    rhs = f_q - rho * coriolis - damping @ c_t
    if fidelity == "consistent":
        lhs = lhs + dt * dt * asm.stiffness
        rhs = rhs - asm.stiffness @ (c + dt * c_t)
    return lhs, rhs


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
@pytest.mark.parametrize("m", [1, 6, 10])
@pytest.mark.parametrize("damping_model", DAMPING)
@pytest.mark.parametrize("fidelity", ["consistent", "literal"])
@pytest.mark.parametrize("mode", [cd.FORCE, cd.DISPLACEMENT])
def test_stepper_matches_reference(case_id, m, damping_model, fidelity, mode, rng):
    asm = _damped_assembly(case_id, m, damping_model)
    dt = 1e-3
    if asm is None:
        # nor does the drag stepper keep the pointwise law's constant damping C0:
        # lhs0 = M + dt^2 S and the rhs rate term is dt S
        asm = _damped_assembly(case_id, m, "drag")
        stp = stepper(asm, dt, fidelity, cd.FORCE)
        s_mat = asm.stiffness if fidelity == "consistent" else np.zeros_like(asm.stiffness)
        n = asm.phi.shape[0]
        assert np.array_equal(stp.lhs0, asm.mass + dt * dt * s_mat)
        assert np.array_equal(stp.state_op[3 * n:3 * n + m], np.hstack([s_mat, dt * s_mat]))
        return
    profile = (ActuationProfile.offset_sinusoid(2.0, 0.5, TWO_PI, 0.3) if mode == cd.FORCE
               else ActuationProfile.linear(0.008, 0.001, mode=cd.DISPLACEMENT))
    if mode == cd.DISPLACEMENT and fidelity == "literal":
        # refused when the Stepper is built; its system is the force Stepper's
        with pytest.raises(cd.ConfigurationError, match="force input only"):
            stepper(asm, dt, fidelity, mode)
        stp = stepper(asm, dt, fidelity, cd.FORCE)
    else:
        stp = stepper(asm, dt, fidelity, mode)
    w = asm.w_cable
    for _ in range(3):
        state = ModalState(0.25, rng.normal(0.0, 1.0, m), rng.normal(0.0, 5.0, m), np.zeros(m))
        lhs_ref, rhs_ref = _reference_system(state.c, state.c_t, asm, dt, fidelity)
        lhs, rhs, w_z = stp.system(state.z)
        for got, ref in zip((lhs, rhs), (lhs_ref, rhs_ref)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for got, v in zip(w_z, (state.c, state.c_t)):
            assert abs(got - w @ v) <= 1e-13 * (np.abs(w) @ np.abs(v))
        if mode == cd.DISPLACEMENT and fidelity == "literal":
            continue
        t = state.t + dt
        new, gam = stp.advance(state, profile.command(t))
        if mode == cd.FORCE:
            assert gam == -0.5 * profile.value(t)
            load = asm.b_consistent if fidelity == "consistent" else asm.b_literal
            c_tt = np.linalg.solve(lhs_ref, rhs_ref + gam * load)
        else:
            w = asm.w_cable
            c_tt, lam = constrained_solve(
                lhs_ref, np.array([rhs_ref, w]).T, w,
                (profile.value(t), profile.rate(t), profile.accel(t)),
                w @ state.c, w @ state.c_t)
            assert gam == pytest.approx(0.5 * lam, rel=1e-9)
        assert new.t == t
        assert np.abs(new.c_tt_last - c_tt).max() <= 1e-9 * np.abs(c_tt).max()
        assert np.array_equal(new.c_t, state.c_t + dt * new.c_tt_last)
        assert np.array_equal(new.c, state.c + dt * new.c_t)


def _advance(asm, options, state, profile):
    """Stepper.advance from state under profile's command at the step's end."""
    return stepper(asm, options.dt, options.fidelity, profile.mode).advance(
        state, profile.command(state.t + options.dt))


class _CountingProfile:
    """Forwards to a profile and counts its evaluations by method."""

    def __init__(self, profile):
        self.profile, self.calls = profile, []

    def __getattr__(self, name):
        attr = getattr(self.profile, name)
        if name not in ("command", "value", "rate", "accel"):
            return attr

        def counted(t):
            self.calls.append(name)
            return attr(t)
        return counted


@pytest.mark.parametrize("profile", [
    ActuationProfile.decaying_sinusoid(0.3, 0.5, 0.35, TWO_PI, 4.0, 0.3),
    ActuationProfile.ramp_then_sinusoid(0.04, 0.005, 0.0002, 0.018, TWO_PI, mode=cd.DISPLACEMENT),
], ids=["force", "displacement"])
def test_advance_evaluates_profile_once_per_step(profile, case1, basis6, grid):
    # step() calls command once per step, simulate once per run (on every
    # step time at once); the record's own value() calls are apart
    asm = cd.make_assembly(case1, basis6, grid)
    options = cd.SolverOptions(t_end=0.01, output_stride=1)
    counting = _CountingProfile(profile)
    state = ref = ModalState.rest(6)
    for k in range(1, 11):
        state = cd.step(state, asm, counting, options)
        ref = cd.step(ref, asm, profile, options)
        assert counting.calls == ["command"] * k
        assert np.array_equal(state.z, ref.z)
    counting.calls.clear()
    record = cd.simulate(case1, counting, options, assembly=asm)
    assert counting.calls.count("command") == 1
    assert np.array_equal(record.states[-1], state.c) and np.array_equal(record.rates[-1], state.c_t)


def test_stepper_cache_per_dt_and_fidelity(case1, basis6, grid):
    # the steppers are built on first use, one per (dt, fidelity, mode), and
    # one Assembly stepped at two dt values matches two fresh Assemblies
    shared = cd.make_assembly(case1, basis6, grid)
    assert shared.steppers == {}
    profile = ActuationProfile.step(3.0)
    runs = {dt: (cd.SolverOptions(dt=dt), cd.make_assembly(case1, basis6, grid),
                 ModalState.rest(6), ModalState.rest(6)) for dt in (1e-3, 2.5e-4)}
    for _ in range(20):
        for dt, (options, fresh, a, b) in runs.items():
            a = cd.step(a, shared, profile, options)
            b = cd.step(b, fresh, profile, options)
            assert np.array_equal(a.c, b.c) and np.array_equal(a.c_t, b.c_t)
            runs[dt] = (options, fresh, a, b)
    assert sorted(shared.steppers) == [(2.5e-4, "consistent", cd.FORCE),
                                       (1e-3, "consistent", cd.FORCE)]
    assert (stepper(shared, 1e-3, "consistent", cd.FORCE)
            is shared.steppers[(1e-3, "consistent", cd.FORCE)])
    stepper(shared, 1e-3, "literal", cd.FORCE)
    stepper(shared, 1e-3, "consistent", cd.DISPLACEMENT)
    with pytest.raises(cd.ConfigurationError, match="force input only"):
        stepper(shared, 1e-3, "literal", cd.DISPLACEMENT)
    assert len(shared.steppers) == 4


def test_coriolis_zero_at_rest(asm_raw2):
    assert np.all(cd.assemble_h(np.array([0.3, 0.1]), np.zeros(2), asm_raw2) == 0)


def test_coriolis_even_in_velocity(asm_raw2, rng):
    c = rng.normal(0, 0.4, 2)
    c_t = rng.normal(0, 1.0, 2)
    h_plus = cd.assemble_h(c, c_t, asm_raw2)
    h_minus = cd.assemble_h(c, -c_t, asm_raw2)
    assert np.allclose(h_plus, h_minus, rtol=1e-13)


def test_load_vector_zero_without_load(asm_raw1):
    assert np.all(cd.assemble_fQ(np.zeros(1), asm_raw1) == 0)


def test_load_vector_straight_closed_form(case1, raw1, grid):
    asm = cd.make_assembly(case1, raw1, grid)
    f_q = cd.assemble_fQ(np.zeros(1), asm)
    assert f_q[0] == pytest.approx(1.4794 * L**2 / 6, rel=1e-12)


def test_load_vector_vanishes_sideways(case1, raw1, grid):
    # theta = pi/2 puts the load orthogonal to the test direction
    asm = cd.make_assembly(case1, raw1, grid)
    theta = np.full_like(grid.nodes, math.pi / 2)
    _, _, f_q, _ = assemble_state_fields(theta, np.zeros_like(theta), asm)
    assert np.abs(f_q).max() < 1e-12


def _substituted(c, delta_l, asm):
    """lambda_substituted on the fields of the modal coefficients c."""
    c = np.asarray(c, dtype=float)
    ws_n = asm.model.eval_W_s(asm.grid.nodes)
    return lambda_substituted(asm.phi_L @ c, asm.dphi_L @ c,
                              asm.grid.integrate(ws_n * (asm.phi @ c)), delta_l, asm)


def test_gamma_force_mode(asm_case1, case1):
    profile = ActuationProfile.step(3.0)
    options = cd.SolverOptions()
    state = ModalState(0.5, np.zeros(6), np.zeros(6), np.zeros(6))
    _, gam = _advance(asm_case1, options, state, profile)
    assert gam == -1.5


def test_gamma_displacement_constant_curvature(case1, raw1, grid):
    # theta = kappa s, constant W: lambda = 2 E I kappa / W
    asm = cd.make_assembly(case1, raw1, grid)
    kappa = 2.5
    state = ModalState(0.0, np.array([kappa * L]), np.zeros(1), np.zeros(1))
    delta_cmd = 0.5 * W * kappa * L    # command consistent with the state
    profile = ActuationProfile.tabulated([0.0, 1.0], [delta_cmd, delta_cmd],
                                         mode=cd.DISPLACEMENT)
    lam = _substituted(state.c, profile.value(0.0), asm)
    assert lam == pytest.approx(2 * E * I * kappa / W, rel=1e-10)
    assert lam == pytest.approx(1.14545, rel=1e-4)


def test_gamma_zero_state_regularized(asm_case1):
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    assert _substituted(ModalState.rest(6).c, profile.value(0.0), asm_case1) == 0.0


def test_lambda_fallback_boundary_form(case1, raw2, grid):
    # state with theta(L) = 0 but nonzero tip curvature: denominator vanishes
    asm = cd.make_assembly(case1, raw2, grid)
    a = 0.3
    state = ModalState(0.0, np.array([a, -a]), np.zeros(2), np.zeros(2))
    profile = ActuationProfile.tabulated([0.0, 1.0], [0.0, 0.0], mode=cd.DISPLACEMENT)
    lam = _substituted(state.c, profile.value(0.0), asm)
    theta_s_l = -a / L
    assert lam == pytest.approx(2 * E * I * theta_s_l / W, rel=1e-10)


def test_actuation_load_literal(asm_raw1, case1_noload):
    profile = ActuationProfile.step(3.0)
    options = cd.SolverOptions(m=1, basis_kind="raw_monomial", fidelity="literal")
    _, gam = _advance(asm_raw1, options,
                      ModalState(0.5, np.zeros(1), np.zeros(1), np.zeros(1)), profile)
    f_l = gam * asm_raw1.b_literal
    # Gamma * W(0) * int phi = -1.5 * 0.11 * L/2
    assert f_l[0] == pytest.approx(-1.5 * 0.11 * L / 2, rel=1e-12)
    assert f_l[0] == pytest.approx(-0.033, rel=1e-12)


def test_actuation_load_consistent_constant_spacing(asm_raw1):
    profile = ActuationProfile.step(3.0)
    options = cd.SolverOptions(m=1, basis_kind="raw_monomial", fidelity="consistent")
    _, gam = _advance(asm_raw1, options,
                      ModalState(0.5, np.zeros(1), np.zeros(1), np.zeros(1)), profile)
    f_l = gam * asm_raw1.b_consistent
    # constant W: f = Gamma * W * phi(L)
    assert f_l[0] == pytest.approx(-1.5 * W * 1.0, rel=1e-12)


def test_cable_direction_matches_consistent_load(asm_case1):
    assert np.allclose(asm_case1.w_cable, 0.5 * asm_case1.b_consistent, rtol=1e-10)


def test_stiffness_and_damping_semidefinite(asm_case1, rng):
    assert np.allclose(asm_case1.stiffness, asm_case1.stiffness.T, rtol=1e-12)
    assert np.linalg.eigvalsh(asm_case1.stiffness).min() >= -1e-12
    c = rng.normal(0, 0.4, 6)
    theta = asm_case1.phi @ c
    _, _, _, damping = assemble_state_fields(theta, np.zeros_like(theta), asm_case1)
    assert np.allclose(damping, damping.T, rtol=1e-12)
    assert np.linalg.eigvalsh(damping).min() >= -1e-12 * np.abs(damping).max()


def test_step_zero_equilibrium(case1_noload, basis6, grid):
    asm = cd.make_assembly(case1_noload, basis6, grid)
    profile = ActuationProfile.linear(0.0)
    options = cd.SolverOptions()
    state = ModalState.rest(6)
    for _ in range(5):
        state = cd.step(state, asm, profile, options)
    assert np.all(state.c == 0.0) and np.all(state.c_t == 0.0)


def test_step_acceleration_solves_system(case1, basis6, grid):
    # re-assemble the same system the step solved and check the residual
    asm = cd.make_assembly(case1, basis6, grid)
    profile = ActuationProfile.step(3.0)
    options = cd.SolverOptions()
    state0 = ModalState.rest(6)
    state1 = cd.step(state0, asm, profile, options)
    dt = options.dt
    theta = asm.phi @ state0.c
    theta_t = asm.phi @ state0.c_t
    k_mat, h_vec, f_q, damping = assemble_state_fields(theta, theta_t, asm)
    rho = case1.material.density
    lhs = asm.mass + rho * k_mat + dt * damping + dt * dt * asm.stiffness
    rhs = (f_q - rho * h_vec - damping @ state0.c_t
           - asm.stiffness @ (state0.c + dt * state0.c_t)
           - 1.5 * asm.b_consistent)
    residual = np.linalg.norm(lhs @ state1.c_tt_last - rhs)
    assert residual <= 1e-10 * np.linalg.norm(rhs)


def test_one_step_from_rest_hand_computed(case1_noload, raw1, grid):
    # m=1, raw basis, no gravity: every matrix has a closed form
    asm = cd.make_assembly(case1_noload, raw1, grid)
    options = cd.SolverOptions(m=1, basis_kind="raw_monomial", dt=1e-3)
    profile = ActuationProfile.step(3.0)
    state, gam = _advance(asm, options, ModalState.rest(1), profile)
    rho = case1_noload.material.density
    k_h = A * L**3 / 20
    mass_h = rho * I * L / 3
    drag_h = 16.0 * L**3 / 20          # (int_0^s phi)^2 weight at theta = 0
    stiff_h = E * I / L
    dt = options.dt
    lhs = mass_h + rho * k_h + dt * drag_h + dt * dt * stiff_h
    expected = (-1.5 * W * 1.0) / lhs
    assert gam == -1.5
    assert state.c_tt_last[0] == pytest.approx(expected, rel=1e-9)


def test_simulate_zero_horizon(case1):
    record = cd.simulate(case1, ActuationProfile.step(3.0), cd.SolverOptions(t_end=0.0))
    assert record.t.size == 1 and record.t[0] == 0.0
    assert np.all(record.states == 0.0)
    assert record.ok


def test_unforced_invariance(case1_noload):
    profile = ActuationProfile.linear(0.0)
    record = cd.simulate(case1_noload, profile, cd.SolverOptions(t_end=0.5))
    assert np.all(record.states == 0.0)
    assert np.all(record.rates == 0.0)


def test_force_mode_bending_direction(case1):
    # positive differential force => negative boundary coefficient => tip drops
    record = cd.simulate(case1, ActuationProfile.linear(1.0),
                         cd.SolverOptions(t_end=3.0), scenario_id="case1_linear")
    assert record.ok
    assert record.gamma[-1] < 0
    assert record.tip_y[-1] < 0


def test_analytical_derivative_consistency(case1):
    # recorded accelerations against finite differences of recorded rates
    options = cd.SolverOptions(t_end=0.05, dt=1e-4, output_stride=1)
    profile = ActuationProfile.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0)
    record = cd.simulate(case1, profile, options)
    fd = np.diff(record.rates, axis=0) / options.dt
    scale = np.abs(record.accels[1:]).max()
    assert np.abs(fd - record.accels[1:]).max() <= 0.05 * scale


def test_energy_non_increasing_under_constant_input(case1):
    record = cd.simulate(case1, ActuationProfile.step(3.0), cd.SolverOptions(t_end=3.0))
    total = record.mechanical + 3.0 * record.delta_l   # includes actuation potential
    assert np.all(np.diff(total) <= 1e-6)


def test_displacement_tracking_and_force_replay(case1):
    # displacement run tracks the command; replaying the recorded multiplier
    # as a force input reproduces the same trajectory
    options = cd.SolverOptions(t_end=1.0, output_stride=1)
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    rec_d = cd.simulate(case1, profile, options, scenario_id="caseA")
    err = np.abs(rec_d.delta_l - rec_d.command)
    assert err[rec_d.t >= 0.2].max() <= 0.02 * np.abs(rec_d.command).max()

    replay = ActuationProfile.tabulated(rec_d.t, -2.0 * rec_d.gamma)
    rec_f = cd.simulate(case1, replay, options, scenario_id="caseA")
    tip_err = np.hypot(rec_f.tip_x - rec_d.tip_x, rec_f.tip_y - rec_d.tip_y)
    assert tip_err.max() <= 0.01 * case1.length


def test_literal_fidelity_rejects_displacement_input(case1, asm_case1):
    # literal has no restoring term to track a displacement command
    options = cd.SolverOptions(t_end=0.05, fidelity="literal")
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    with pytest.raises(cd.ConfigurationError, match="force input only"):
        cd.simulate(case1, profile, options)
    with pytest.raises(cd.ConfigurationError, match="force input only"):
        cd.step(ModalState.rest(6), asm_case1, profile, options)
    # the same input under the consistent fidelity steps
    cd.step(ModalState.rest(6), asm_case1, profile, cd.SolverOptions())


def test_nc_detection_on_blowup(case1):
    profile = ActuationProfile.step(1e9)
    record = cd.simulate(case1, profile, cd.SolverOptions(t_end=1.0, fidelity="literal"))
    assert record.nc_step is not None
    assert not record.ok
    assert np.all(np.isfinite(record.states))


def test_nc_reason_on_blowup(case1):
    profile = ActuationProfile.step(1e9)
    record = cd.simulate(case1, profile, cd.SolverOptions(t_end=1.0, fidelity="literal"))
    assert record.nc_step is not None
    assert record.nc_reason.startswith("angle limit exceeded")
    converged = cd.simulate(case1, ActuationProfile.step(3.0), cd.SolverOptions(t_end=0.01))
    assert converged.ok and converged.nc_reason == ""


def test_diagnostics_at_samples_match_step_loop(case1):
    # lambda_pre/lambda_post are evaluated on the state each recorded step
    # started from, with the command at the step's end; the states themselves
    # are those of a plain step() loop
    options = cd.SolverOptions(t_end=0.03, output_stride=1)
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    asm = cd.make_assembly(case1, cd.ModalBasis(options.m, case1.length),
                           cd.make_quadrature(options.panels, options.points_per_panel,
                                              case1.length))
    record = cd.simulate(case1, profile, options, assembly=asm)
    assert record.ok and record.t.size == 31
    state = ModalState.rest(options.m)
    for k in range(1, record.t.size):
        prev = state
        state = cd.step(prev, asm, profile, options)
        assert np.array_equal(state.c, record.states[k])
        assert np.array_equal(state.c_t, record.rates[k])
        assert record.lambda_pre[k] == lambda_boundary(float(asm.dphi_L @ prev.c), asm)
        theta = asm.phi @ prev.c
        assert record.lambda_post[k] == lambda_substituted(
            float(asm.phi_L @ prev.c), float(asm.dphi_L @ prev.c),
            float(asm.grid.integrate(asm.model.eval_W_s(asm.grid.nodes) * theta)),
            profile.value(record.t[k]), asm)
    assert np.any(record.lambda_post[1:] != 0.0)


def test_modal_state_api(case1, basis6, grid):
    # one array z = [c; c_t] with c and c_t its views, built positionally or
    # reached by stepping; a positional state steps to the same bits
    asm = cd.make_assembly(case1, basis6, grid)
    options = cd.SolverOptions()
    rest = ModalState.rest(6)
    assert rest.t == 0.0 and rest.z.shape == (12,)
    assert all(np.array_equal(a, np.zeros(n)) for a, n in
               ((rest.z, 12), (rest.c, 6), (rest.c_t, 6), (rest.c_tt_last, 6)))
    listed = ModalState(0.5, [1, 2], [3, 4], np.zeros(2))
    assert listed.z.dtype == float and listed.z.tolist() == [1.0, 2.0, 3.0, 4.0]
    for profile in (ActuationProfile.step(3.0),
                    ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)):
        reached = rest
        for _ in range(5):
            reached = cd.step(reached, asm, profile, options)
        built = ModalState(reached.t, reached.c.copy(), reached.c_t.copy(),
                           reached.c_tt_last.copy())
        assert not np.shares_memory(built.z, reached.z)
        for state in (rest, reached, built):
            assert state.c.base is state.z and state.c_t.base is state.z
            assert np.array_equal(state.z, np.r_[state.c, state.c_t])
        assert built.t == reached.t and np.array_equal(built.z, reached.z)
        after_built = cd.step(built, asm, profile, options)
        after_reached = cd.step(reached, asm, profile, options)
        assert after_built.t == after_reached.t
        assert np.array_equal(after_built.z, after_reached.z)
        assert np.array_equal(after_built.c_tt_last, after_reached.c_tt_last)


@pytest.mark.parametrize("scenario_id", ["case1_sinusoid", "case2_step", "caseB", "caseC",
                                         "caseD", "tabulated"])
def test_simulate_matches_step_loop_bit_for_bit(scenario_id):
    # simulate evaluates every command at once on its accumulated step times;
    # a step() loop evaluates each at the float time it reaches
    sc = cd.scenario_by_id("case1_step" if scenario_id == "tabulated" else scenario_id)
    profile = (ActuationProfile.tabulated([0.0, 0.05, 0.12, 0.2], [0.0, 2.0, 1.0, 3.0])
               if scenario_id == "tabulated" else sc.profile)
    options = replace(sc.options, t_end=0.2, output_stride=1)
    asm = cd.make_assembly(sc.model, cd.ModalBasis(options.m, sc.model.length),
                           cd.make_quadrature(options.panels, options.points_per_panel,
                                              sc.model.length))
    record = cd.simulate(sc.model, profile, options, assembly=asm)
    assert record.ok and record.t.size == 201
    state = ModalState.rest(options.m)
    for k in range(1, record.t.size):
        state, gam = _advance(asm, options, state, profile)
        assert state.t == record.t[k] and gam == record.gamma[k]
        assert np.array_equal(state.c, record.states[k])
        assert np.array_equal(state.c_t, record.rates[k])
        assert np.array_equal(state.c_tt_last, record.accels[k])


def _default_assembly(model, options):
    return cd.make_assembly(model, cd.ModalBasis(options.m, model.length),
                            cd.make_quadrature(options.panels, options.points_per_panel,
                                               model.length))


def _step_loop(asm, profile, options, n_steps):
    """The z of every state a step() loop from rest reaches."""
    state = ModalState.rest(options.m)
    zs = []
    for _ in range(n_steps):
        state = cd.step(state, asm, profile, options)
        zs.append(state.z)
    return np.array(zs)


def test_stepper_workspace_reuse(rng):
    # system() returns views of one workspace that each call overwrites
    options = cd.SolverOptions()
    for sid in ("case2_step", "caseD"):
        sc = cd.scenario_by_id(sid, options)
        asm = _default_assembly(sc.model, options)
        stp = stepper(asm, options.dt, options.fidelity, sc.profile.mode)
        z1, z2 = rng.normal(0.0, 1.0, (2, 2 * options.m))
        lhs1, rhs1, _ = stp.system(z1)
        lhs2, rhs2, w_z2 = stp.system(z2)
        assert np.shares_memory(lhs1, lhs2) and np.shares_memory(rhs1, rhs2)
        fresh = cd.galerkin.Stepper(asm, options.dt, options.fidelity, sc.profile.mode)
        for got, ref in zip((lhs2, rhs2, w_z2), fresh.system(z2)):
            assert np.array_equal(got, ref)

    # two step() loops interleaved on one Assembly: case2_step and
    # case2_sinusoid share one force Stepper, caseC and caseD a displacement one
    n_steps = 200
    for first, second in (("case2_step", "case2_sinusoid"), ("caseC", "caseD")):
        sc1, sc2 = cd.scenario_by_id(first, options), cd.scenario_by_id(second, options)
        assert sc1.model == sc2.model and sc1.profile.mode == sc2.profile.mode
        alone = [_step_loop(_default_assembly(sc.model, options), sc.profile, options, n_steps)
                 for sc in (sc1, sc2)]
        asm = _default_assembly(sc1.model, options)
        states = [ModalState.rest(options.m), ModalState.rest(options.m)]
        zs = [[], []]
        for _ in range(n_steps):
            for i, sc in enumerate((sc1, sc2)):
                states[i] = cd.step(states[i], asm, sc.profile, options)
                zs[i].append(states[i].z)
        assert len(asm.steppers) == 1
        for got, ref in zip(zs, alone):
            assert np.array_equal(np.array(got), ref)

    # simulate after a bare step() loop on the same Assembly
    sc = cd.scenario_by_id("caseD", options)
    short = replace(options, t_end=0.2)
    asm = _default_assembly(sc.model, options)
    _step_loop(asm, cd.scenario_by_id("caseC", options).profile, options, 150)
    after = cd.simulate(sc.model, sc.profile, short, assembly=asm)
    fresh = cd.simulate(sc.model, sc.profile, short,
                        assembly=_default_assembly(sc.model, options))
    for name, value in vars(fresh).items():
        if name == "compute_seconds":
            continue
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(after, name), value, equal_nan=True), name
        else:
            assert getattr(after, name) == value, name


@pytest.mark.parametrize("dt", [1e-3, 2.5e-4, 2e-4, 1e-4, 3e-3])
def test_step_times_accumulate_as_the_loop(dt):
    # simulate's step times, np.add.accumulate over [0, dt, dt, ...], are the
    # times a step loop reaches by t + dt, bit for bit
    steps = np.full(20001, dt)
    steps[0] = 0.0
    t, loop = 0.0, [0.0]
    for _ in range(20000):
        t = t + dt
        loop.append(t)
    assert np.add.accumulate(steps).tolist() == loop


def test_lambda_diagnostics_recorded(case1):
    options = cd.SolverOptions(t_end=0.5)
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    record = cd.simulate(case1, profile, options)
    # once moving, both closed forms are finite and the same order as applied
    tail = record.t >= 0.3
    assert np.all(np.isfinite(record.lambda_pre[tail]))
    assert np.all(np.isfinite(record.lambda_post[tail]))


# The default grid's largest tip distance (m) from a 32 x 10 run over 0.2 s,
# as measured: case2_step is the worst cell of the grid sweep
# (scripts/grid_sweep.py).  caseD sits at the round-off floor (5e-16 m, a few
# ulp of a 0.4 m tip), so its bound is round-off of the tip's size alone.
GRID_DISTANCE = {("case2_step", 6): 1.1e-13, ("case2_step", 10): 4.8e-12,
                 ("caseD", 6): 0.0, ("caseD", 10): 0.0}
GRID_MARGIN = 10.0
GRID_ROUNDOFF = 1e-14


@pytest.mark.parametrize("scenario_id, m", sorted(GRID_DISTANCE))
def test_default_grid_has_converged(scenario_id, m):
    sc = cd.scenario_by_id(scenario_id)
    sc = replace(sc, horizon=0.2, options=replace(sc.options, m=m))
    fine = replace(sc, options=replace(sc.options, panels=32, points_per_panel=10))
    default, reference = cd.run_scenario(sc), cd.run_scenario(fine)
    assert default.ok and reference.ok
    distance = np.max(np.hypot(default.tip_x - reference.tip_x, default.tip_y - reference.tip_y))
    size = np.max(np.hypot(reference.tip_x, reference.tip_y))
    assert distance <= max(GRID_MARGIN * GRID_DISTANCE[scenario_id, m], GRID_ROUNDOFF * size)


# The semi-implicit Euler step is first order in dt.  Against a dt/16
# reference, an exact first-order error e(dt) = C dt reads
# e(dt) / e(dt/2) = (1 - 1/16) / (1/2 - 1/16) = 15/7, p = log2(15/7) = 1.099.
# Measured: 1.099 (case1_linear), 1.091 (case2_sinusoid), 1.100 (caseC).
# A higher-order integrator moves this band on purpose.
ORDER_BAND = (1.0, 1.2)
ORDER_DT = 1e-3


@pytest.mark.parametrize("scenario_id", ["case1_linear", "case2_sinusoid", "caseC"])
def test_observed_time_order(scenario_id):
    sc = cd.scenario_by_id(scenario_id)

    def tip(div):
        # one sample every 0.01 s at each dt, so the records share their times
        options = replace(sc.options, m=6, dt=ORDER_DT / div, output_stride=10 * div)
        rec = cd.run_scenario(replace(sc, horizon=1.0, options=options))
        assert rec.ok
        return rec.t, rec.tip_x, rec.tip_y

    (t, x, y), (t2, x2, y2), (t_ref, x_ref, y_ref) = tip(1), tip(2), tip(16)
    assert np.allclose(t, t_ref) and np.allclose(t2, t_ref)
    late = t_ref >= 0.2 - 1e-12        # after 0.2 s the time step dominates the error
    e_dt = np.max(np.hypot(x - x_ref, y - y_ref)[late])
    e_half = np.max(np.hypot(x2 - x_ref, y2 - y_ref)[late])
    order = math.log2(e_dt / e_half)
    assert ORDER_BAND[0] <= order <= ORDER_BAND[1], order
