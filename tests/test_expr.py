import numpy as np
import pytest

from bolzakit import expr as ex

from oracles import random_env, random_expr


def test_parse_running_cost_shape():
    e = ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING)
    assert e == ex.Binary(
        "div",
        ex.Binary("pow", ex.Var("v1"), ex.Const(2.0)),
        ex.Const(2.0),
    )


def test_parse_terminal_cost_shape():
    e = ex.parse("x0_1^2 + xT_1", 1, ex.PROFILE_TERMINAL)
    assert e == ex.Binary(
        "add",
        ex.Binary("pow", ex.Var("x0_1"), ex.Const(2.0)),
        ex.Var("xT_1"),
    )


def test_parse_unknown_identifier_offset():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("v1 + q", 1, ex.PROFILE_RUNNING)
    assert "unknown identifier `q`" in str(err.value)
    assert err.value.offset == 5


def test_parse_index_out_of_range():
    with pytest.raises(ex.ExprSyntaxError, match="out of range"):
        ex.parse("x3", 2, ex.PROFILE_RUNNING)


def test_parse_profile_violation():
    # a drift component depends on (t, x) only
    with pytest.raises(ex.ExprSyntaxError, match="not allowed"):
        ex.parse("v1", 1, ex.PROFILE_DRIFT)
    with pytest.raises(ex.ExprSyntaxError, match="not allowed"):
        ex.parse("x1", 1, ex.PROFILE_TERMINAL)


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1 + * 2", 1, ex.PROFILE_RUNNING)
    assert err.value.offset == 4
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("(1 + 2", 1, ex.PROFILE_RUNNING)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("", 1, ex.PROFILE_RUNNING)


def test_parse_rejects_variable_exponent():
    with pytest.raises(ex.ExprSyntaxError, match="constant"):
        ex.parse("x1^v1", 1, ex.PROFILE_RUNNING)
    # constant subexpressions are fine
    e = ex.parse("x1^(3/2)", 1, ex.PROFILE_RUNNING)
    assert ex.eval_expr(e, {"x1": 4.0}) == pytest.approx(8.0)


def test_precedence_pow_over_neg():
    e = ex.parse("-x1^2", 1, ex.PROFILE_RUNNING)
    assert e == ex.Unary("neg", ex.Binary("pow", ex.Var("x1"), ex.Const(2.0)))


def test_eval_examples():
    assert ex.eval_expr(ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING), {"v1": 3}) == 4.5
    assert (
        ex.eval_expr(ex.parse("t*x1", 1, ex.PROFILE_RUNNING), {"t": 0, "x1": 7})
        == 0.0
    )
    with pytest.raises(ex.ExprDomainError, match="division by zero"):
        ex.eval_expr(ex.parse("1/x1", 1, ex.PROFILE_RUNNING), {"x1": 0.0})


def test_eval_domain_errors_name_subexpression():
    with pytest.raises(ex.ExprDomainError, match=r"log.*`log\(x1\)`"):
        ex.eval_expr(ex.parse("log(x1)", 1, ex.PROFILE_RUNNING), {"x1": -1.0})
    with pytest.raises(ex.ExprDomainError, match="sqrt"):
        ex.eval_expr(ex.parse("sqrt(x1)", 1, ex.PROFILE_RUNNING), {"x1": -0.5})
    with pytest.raises(ex.ExprDomainError, match="non-integer power"):
        ex.eval_expr(ex.parse("x1^0.5", 1, ex.PROFILE_RUNNING) , {"x1": -2.0})


def test_eval_missing_variable():
    with pytest.raises(ex.ExprError, match="no value"):
        ex.eval_expr(ex.parse("x1 + v1", 1, ex.PROFILE_RUNNING), {"x1": 1.0})


def test_eval_vectorized_matches_scalar():
    e = ex.parse("sin(x1)*v1 + t^2", 1, ex.PROFILE_RUNNING)
    t = np.linspace(0, 1, 7)
    x = np.linspace(-1, 1, 7)
    v = np.linspace(2, 3, 7)
    vec = ex.eval_expr(e, {"t": t, "x1": x, "v1": v})
    for i in range(7):
        scalar = ex.eval_expr(e, {"t": t[i], "x1": x[i], "v1": v[i]})
        assert vec[i] == pytest.approx(scalar, rel=1e-15)


def test_diff_power_rule_folds_to_variable():
    e = ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING)
    assert ex.diff(e, "v1") == ex.Var("v1")


def test_diff_product_chain_rule():
    e = ex.parse("sin(x1)*t", 1, ex.PROFILE_RUNNING)
    d = ex.diff(e, "x1")
    assert d == ex.parse("cos(x1)*t", 1, ex.PROFILE_RUNNING)


def test_diff_exp_matches_finite_difference():
    e = ex.parse("exp(2*x1)", 1, ex.PROFILE_RUNNING)
    d = ex.diff(e, "x1")
    step = 1e-6
    x0 = 0.3
    fd = (
        ex.eval_expr(e, {"x1": x0 + step}) - ex.eval_expr(e, {"x1": x0 - step})
    ) / (2 * step)
    sym = ex.eval_expr(d, {"x1": x0})
    assert abs(sym - fd) <= 1e-8 * abs(sym)


def test_diff_matches_finite_difference_randomized():
    # 1000 random smooth trees, each checked against a central difference
    rng = np.random.default_rng(20240211)
    names = sorted(ex.legal_variables(ex.PROFILE_RUNNING, 2))
    checked = 0
    while checked < 1000:
        e = random_expr(rng, ex.PROFILE_RUNNING, 2, depth=int(rng.integers(1, 7)))
        var = names[int(rng.integers(len(names)))]
        env = random_env(rng, names)
        step = 1e-6
        try:
            d = ex.diff(e, var)
            sym = ex.eval_expr(d, env)
            up = dict(env)
            dn = dict(env)
            up[var] = env[var] + step
            dn[var] = env[var] - step
            fd = (ex.eval_expr(e, up) - ex.eval_expr(e, dn)) / (2 * step)
        except ex.ExprDomainError:
            continue
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), ex.to_string(e)
        checked += 1


def test_print_parse_round_trip_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(300):
        tree = random_expr(rng, ex.PROFILE_RUNNING, 2, depth=int(rng.integers(1, 6)))
        text = ex.to_string(tree)
        reparsed = ex.parse(text, 2, ex.PROFILE_RUNNING)
        # one print/parse pass reaches a fixed point
        again = ex.parse(ex.to_string(reparsed), 2, ex.PROFILE_RUNNING)
        assert again == reparsed


def test_parse_images_round_trip_exactly():
    for text in ("v1^2/2", "-x1^2 + t*v1", "sin(x1)*cos(t) - exp(0.25*x1)",
                 "x1^-2", "1/(0.5 + v1^2)", "2^3^2", "--x1"):
        tree = ex.parse(text, 1, ex.PROFILE_RUNNING)
        assert ex.parse(ex.to_string(tree), 1, ex.PROFILE_RUNNING) == tree


def test_diff_is_linear_node_for_node():
    rng = np.random.default_rng(99)
    for _ in range(200):
        e1 = random_expr(rng, ex.PROFILE_RUNNING, 1, depth=3)
        e2 = random_expr(rng, ex.PROFILE_RUNNING, 1, depth=3)
        a = ex.Const(float(np.round(rng.uniform(-3, 3), 3)))
        combo = ex.Binary("add", ex.Binary("mul", a, e1), e2)
        try:
            lhs = ex.diff(combo, "x1")
        except ex.ExprError:
            continue
        rhs = ex._add(ex._mul(a, ex.diff(e1, "x1")), ex.diff(e2, "x1"))
        assert lhs == rhs


def test_pow_integer_negative_base_ok():
    e = ex.parse("x1^3", 1, ex.PROFILE_RUNNING)
    assert ex.eval_expr(e, {"x1": -2.0}) == -8.0


def _node_count(e) -> int:
    if isinstance(e, ex.Unary):
        return 1 + _node_count(e.arg)
    if isinstance(e, ex.Binary):
        return 1 + _node_count(e.left) + _node_count(e.right)
    return 1


def test_compiled_gradients_share_subtrees():
    e = ex.parse("exp(x1*x2)", 2, ex.PROFILE_RUNNING)
    grads = [ex.diff(e, "x1"), ex.diff(e, "x2")]
    program = ex.compile_program(grads)
    assert len(program.steps) < sum(_node_count(g) for g in grads)
    nodes = [step[-1] for step in program.steps]
    assert nodes.count(e) == 1  # exp(x1*x2) is one step, used by both
    env = {"x1": np.linspace(-1, 1, 5), "x2": np.linspace(0.5, 2, 5)}
    for tree, value in zip(grads, ex.run_program(program, env)):
        assert np.array_equal(value, ex.eval_expr(tree, env))


def test_compiled_constants_keep_their_sign_bit():
    trees = [ex.Binary("add", ex.Var("x1"), ex.Const(-0.0)),
             ex.parse("x1+0", 1, ex.PROFILE_RUNNING)]
    minus, plus = ex.run_program(ex.compile_program(trees), {"x1": -0.0})
    assert minus == 0.0 and np.signbit(minus)
    assert plus == 0.0 and not np.signbit(plus)


def test_domain_error_names_first_failing_subexpression_in_problem():
    from bolzakit.convex import Reals
    from bolzakit.problem import ProblemSpec

    P = ProblemSpec(
        n=1, T=1.0, phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("log(x1)+sqrt(x1)", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)], omega1=Reals(1), omega2=Reals(2),
    )
    t, X, V = np.zeros(3), -np.ones((3, 1)), np.zeros((3, 1))
    with pytest.raises(ex.ExprDomainError, match=r"`log\(x1\)`"):
        P.theta_cells(t, X, V)
    # theta_x = 1/x1 + 1/(2*sqrt(x1)): the division is fine at -1
    with pytest.raises(ex.ExprDomainError, match=r"`sqrt\(x1\)`$"):
        P.theta_grad_cells(t, X, V)


@pytest.mark.parametrize("text, x1, value", [
    ("x1^3", -2.0, -8.0),
    ("x1^-2", -2.0, 0.25),
    ("x1/2", 0.0, 0.0),
    ("x1^0.5", -2.0, "non-integer power"),
    ("1/x1", 0.0, "division by zero"),
])
def test_domain_tests_decided_at_compile_time(text, x1, value):
    e = ex.parse(text, 1, ex.PROFILE_RUNNING)
    (*_, test, node) = ex.compile_program([e]).steps[-1]
    assert node == e
    if isinstance(value, str):
        assert test is not None
        with pytest.raises(ex.ExprDomainError, match=value):
            ex.eval_expr(e, {"x1": x1})
    else:
        assert test is None  # a nonzero divisor or an integral exponent
        assert ex.eval_expr(e, {"x1": x1}) == value


def _families(P):
    """The six compiled programs of a problem, with their variable profile."""
    return [(P._theta, ex.PROFILE_RUNNING), (P._theta_grad, ex.PROFILE_RUNNING),
            (P._g, ex.PROFILE_DRIFT), (P._g_jac, ex.PROFILE_DRIFT),
            (P._phi, ex.PROFILE_TERMINAL), (P._phi_grad, ex.PROFILE_TERMINAL)]


def _without_frees(program):
    return program._replace(steps=tuple(
        (out, fn, a, b, (), test, node)
        for out, fn, a, b, _, test, node in program.steps))


def test_released_slots_leave_outputs_bitwise_equal():
    from bolzakit.catalog import all_cases
    from bolzakit.problem import ProblemSpec
    from bolzakit.convex import Reals

    rng = np.random.default_rng(3)
    problems = [case.problem for case in all_cases()]
    problems.append(ProblemSpec(
        n=2, T=1.0, phi=random_expr(rng, ex.PROFILE_TERMINAL, 2, depth=4),
        theta=random_expr(rng, ex.PROFILE_RUNNING, 2, depth=5),
        g=[random_expr(rng, ex.PROFILE_DRIFT, 2, depth=4) for _ in range(2)],
        omega1=Reals(2), omega2=Reals(4),
    ))
    for P in problems:
        for program, profile in _families(P):
            env = {name: rng.uniform(-1.5, 1.5, size=50)
                   for name in ex.legal_variables(profile, P.n)}
            kept = ex.run_program(_without_frees(program), env)
            for got, want in zip(ex.run_program(program, env), kept):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_each_intermediate_slot_is_released_by_its_last_reader():
    e = ex.parse("exp(x1*x2) + sin(x1*x2)*x2", 2, ex.PROFILE_RUNNING)
    program = ex.compile_program([ex.diff(e, "x1"), e])
    last_reader = {}
    for i, (_, _, a, b, *_) in enumerate(program.steps):
        last_reader[a] = last_reader[b] = i
    released = [slot for step in program.steps for slot in step[4]]
    computed = {step[0] for step in program.steps} - set(program.outputs)
    assert sorted(released) == sorted(computed)  # each once, no output
    for i, step in enumerate(program.steps):
        assert all(last_reader[slot] == i for slot in step[4])
