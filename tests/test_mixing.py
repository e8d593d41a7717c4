import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixbound import mixing as mx
from mixbound import processes as pr
from mixbound import function_classes as fc


PROFILES = st.one_of(
    st.just(mx.iid_profile()),
    st.integers(1, 20).map(mx.m_dependent_profile),
    st.floats(0.1, 5.0, allow_nan=False).map(mx.polynomial_profile),
    st.floats(0.05, 0.95, allow_nan=False).map(mx.exponential_profile),
)


def test_theta_values():
    md = mx.m_dependent_profile(3)
    assert md.theta(2) == 1.0 and md.theta(3) == 0.0
    assert mx.polynomial_profile(2.0).theta(1) == 0.25
    assert mx.iid_profile().theta(7) == 0.0


@given(PROFILES, st.integers(0, 200))
def test_theta_monotone_and_normalized(prof, q):
    vals = prof.theta(np.arange(q + 1))
    vals = np.atleast_1d(vals)
    assert vals[0] == 1.0
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.all(np.diff(vals) <= 0)


def test_inverse_examples():
    assert mx.polynomial_profile(1.0).inverse(0.2) == 4
    assert mx.m_dependent_profile(5).inverse(0.5) == 5
    for prof in (mx.iid_profile(), mx.polynomial_profile(2.0)):
        assert prof.inverse(1.0) == 0


@given(PROFILES, st.floats(1e-6, 1.0, allow_nan=False))
def test_inverse_consistency(prof, u):
    s = prof.inverse(u)
    assert prof.theta(s) <= u
    if s > 0:
        assert prof.theta(s - 1) > u


@given(PROFILES, st.integers(0, 50))
def test_inverse_of_theta(prof, q):
    assert prof.inverse(prof.theta(q)) <= q


def test_tabulated_rejects_nan():
    # NaN fails every range and order comparison, so it needs its own check.
    with pytest.raises(mx.ProfileError, match="table values must be finite"):
        mx.tabulated_profile([1.0, math.nan, 0.3])


@pytest.mark.parametrize("prof", [mx.polynomial_profile(1.5), mx.exponential_profile(0.5),
                                  mx.m_dependent_profile(3), mx.iid_profile(),
                                  mx.tabulated_profile([1.0, 0.5])], ids=lambda p: p.spec())
def test_inverse_refuses_nan_and_a_level_theta_never_reaches(prof):
    with pytest.raises(mx.ProfileError, match="u must be >= 0, got nan"):
        prof.inverse(math.nan)
    if prof.kind in ("polynomial", "exponential"):
        with pytest.raises(mx.ProfileError, match=f"{prof.kind} theta never reaches 0"):
            prof.inverse(0.0)


def test_tabulated_inverse_undefined():
    prof = mx.tabulated_profile([1.0, 0.5, 0.5], tail="hold")
    with pytest.raises(mx.ProfileError):
        prof.inverse(0.1)
    assert mx.tabulated_profile([1.0, 0.5], tail="zero").inverse(0.1) == 2


def test_parse_profile_roundtrip():
    assert mx.parse_profile("iid").kind == "iid"
    assert mx.parse_profile("mdep:m=4").m == 4
    assert mx.parse_profile("poly:m=0.5").m == 0.5
    assert mx.parse_profile("expo:l=0.9").l == 0.9


@pytest.mark.parametrize("spec, key", [("poly:m=0.5,m=0.9", "m"), ("expo:l=0.5,l=0.5", "l"),
                                       ("table:t.csv,tail=zero,tail=hold", "tail")])
def test_parse_profile_rejects_a_repeated_key(spec, key):
    with pytest.raises(ValueError, match=f"repeated key '{key}'"):
        mx.parse_profile(spec)


@pytest.mark.parametrize("spec, key", [("ar1:rho=0.5,rho=0.9", "rho"),
                                       ("ma:m=3,sigma=1,sigma=2", "sigma"),
                                       ("iid:scale=2,scale=2", "scale")])
def test_parse_model_rejects_a_repeated_key(spec, key):
    with pytest.raises(ValueError, match=f"repeated key '{key}'"):
        pr.parse_model(spec)


def test_tau_iid_vanishes():
    model = pr.iid_model()
    members = fc.make_class("lipschitz4", model).members
    est = mx.estimate_tau(model, members, q=3, outer_reps=200, inner_reps=400, seed=5)
    # The nested estimator's noise floor is of order 1/sqrt(inner).
    assert est.value < 6.0 / math.sqrt(400)


def test_tau_requires_markov_and_variance_control():
    model = pr.ma_model(2)
    members = fc.make_class("lipschitz4", pr.iid_model()).members
    with pytest.raises(ValueError):
        mx.estimate_tau(model, members, 2, 10, 10, seed=0)
    with pytest.raises(ValueError):
        mx.estimate_tau(pr.iid_model(), members, 2, 10, 1, seed=0)


def _former_class_tau(model, members, q, outer, inner, seed):
    """The former two-step class tau, inline: the nested estimate taken on the
    unit cone (each draw's sup divided by the sup envelope), then multiplied
    back by the envelope; taken raw when a member is unbounded."""
    sups = [m.sup_bound for m in members]
    scale = 1.0 if None in sups else max(sups)
    rng = pr.seeded_rng(seed, 0x7A11)
    states = np.repeat(model.stationary_sample(outer, rng), inner)
    for _ in range(q):
        states = model.step(states, model.draw_innovations(states.size, rng))
    states = states.reshape(outer, inner)
    sums = np.stack([m.func(states).sum(axis=-1) for m in members])
    means = np.array([m.mean for m in members])[:, None]
    value, se = pr.mean_se(np.abs(sums / inner - means).max(axis=0) / scale)
    return scale * value, scale * se


def _lazy_lipschitz4():
    model = pr.lazy_renewal_model(1.5)
    members = fc.make_class("lipschitz4", pr.iid_model()).members
    return model, fc.mc_means(members, model, draws=10**5, seed=3)


@pytest.mark.parametrize("model, members", [
    (pr.ar1_model(0.5), fc.make_class("lipschitz4", pr.ar1_model(0.5)).members),
    (pr.ar1_model(0.5), fc.make_class("indicator", pr.ar1_model(0.5)).members),
    (pr.ar1_model(0.5), fc.make_class("lipschitz5", pr.ar1_model(0.5)).members),
    _lazy_lipschitz4(),
], ids=["ar1-lipschitz4", "ar1-indicator", "ar1-lipschitz5", "lazy-lipschitz4"])
def test_tau_is_the_former_unit_cone_round_trip_bit_for_bit(model, members):
    # The built-in envelopes are 1.0 (lipschitz4) and 0.5 (indicator), so the
    # round trip is exact; lipschitz5's unbounded absval was estimated raw.
    est = mx.estimate_tau(model, members, 4, 60, 40, seed=9)
    assert (est.value, est.std_error) == _former_class_tau(model, members, 4, 60, 40, 9)


def test_tau_ar1_identity_matches_analytic():
    # Conditional mean of the linear member is the contraction of the state,
    # so the target is rho^q times the half-normal moment of the marginal.
    rho, q = 0.8, 2
    model = pr.ar1_model(rho)
    member = fc.make_class("identity", model).members[0]
    est = mx.estimate_tau(model, [member], q, outer_reps=3000, inner_reps=4000, seed=21)
    target = rho**q * model.marginal_sd() * math.sqrt(2.0 / math.pi)
    assert abs(est.value - target) <= 3.0 * est.std_error + 0.01 * target


def test_tau_ar1_geometric_decay_slope():
    model = pr.ar1_model(0.9)
    members = fc.make_class("lipschitz4", model).members
    qs = np.array([2, 4, 6, 8, 10])
    vals = np.array([
        mx.estimate_tau(model, members, int(q), 1500, 1500, seed=30 + q).value
        for q in qs
    ])
    x = qs - qs.mean()
    slope = float((x * (np.log(vals) - np.log(vals).mean())).sum() / (x * x).sum())
    assert abs(slope - math.log(0.9)) <= 0.2 * abs(math.log(0.9))


def test_lazy_renewal_mixing_estimated_decay():
    # The renewal chain's coefficients are never assumed, only measured:
    # the tau estimate must show decay over widening lags.
    model = pr.lazy_renewal_model(1.0)
    rng = np.random.default_rng(0)
    sample = model.stationary_sample(10**6, rng)
    func = lambda x: np.minimum(x, 3.0) / 3.0
    member = fc.ClassMember(name="capped", func=func,
                            mean=float(func(sample).mean()), sup_bound=1.0)
    taus = [mx.estimate_tau(model, [member], q, 1200, 1200, seed=50 + q).value
            for q in (1, 4, 16)]
    assert taus[0] > taus[1] > taus[2]


@pytest.mark.parametrize("kind, kwargs, field", [
    ("polynomial", dict(m=2.0, tail="bogus"), "tail"),
    ("exponential", dict(l=0.5, m=3.0), "m"),
    ("iid", dict(l=0.5), "l"),
    ("m_dependent", dict(m=2, table=(1.0,)), "table"),
    ("tabulated", dict(table=(1.0, 0.5), m=1.0), "m"),
])
def test_profile_refuses_a_field_its_kind_does_not_read(kind, kwargs, field):
    with pytest.raises(mx.ProfileError, match=f"^{kind} takes no {field}$"):
        mx.MixingProfile(kind, **kwargs)


@pytest.mark.parametrize("draws", [1, 5000, 10**4, 15000, 19999, 20000])
def test_mc_means_averages_exactly_the_draws_asked_for(draws, monkeypatch):
    model = pr.ma_model(3)
    seen = []
    stationary_sample = pr.ProcessModel.stationary_sample

    def spy(self, size, rng):
        seen.append(size)
        return stationary_sample(self, size, rng)

    monkeypatch.setattr(pr.ProcessModel, "stationary_sample", spy)
    sizes = []
    probe = fc.ClassMember("probe", lambda x: sizes.append(x.size) or x, mean=None)
    fc.mc_means([probe], model, draws=draws)
    assert seen == [draws] and sizes == [draws]
