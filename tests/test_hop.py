import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchestra import autodiff as ad
from orchestra.envs import EnvInstance, LevelSpec, N_ACTIONS, OBS_DIM
from orchestra.errors import ContractError, DimensionError
from orchestra.hop import (CheckpointPolicy, HopConfig, JoinedIndex,
                           JoinedSource, Orchestra, TrustedStateSet, checkpoint_now,
                           expand_joined,
                           hierarchical_weights, joined_records, load_checkpoint,
                           masked_policy_update, save_checkpoint)
from orchestra.nn import Adam, Mlp
from orchestra.ppo import (GaeOutput, PpoConfig, RolloutBuffer,
                           collect_rollout, compute_gae, ppo_update)

from conftest import assert_parameters_stay_aligned


# --- similarity and activation ------------------------------------------------


def _filled_set(rng, n, dim=8, cap=None):
    ts = TrustedStateSet(cap or n, rng)
    states = rng.random((n, dim)) + 0.01
    ts.add_episode(states, episode_return=9.0)
    return ts, states


def test_find_most_similar_matches_brute_force_scan():
    rng = np.random.default_rng(0)
    ts, states = _filled_set(rng, 1000, dim=16)
    for _ in range(50):
        q = rng.random(16) + 0.01
        best_raw, best_sim, best_idx = ts.find_most_similar(q)
        sims = states @ q / (np.linalg.norm(states, axis=1) * np.linalg.norm(q))
        oracle_idx = int(np.argmax(sims))
        assert best_idx == oracle_idx
        assert abs(best_sim - sims[oracle_idx]) < 1e-12
        assert np.array_equal(best_raw, states[oracle_idx])


def _rotated(u, angle, rng):
    """Unit vector at exactly `angle` radians from unit vector u."""
    w = rng.random(u.shape)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return np.cos(angle) * u + np.sin(angle) * w


def _ckpt(index, actor, trusted, step=0):
    return CheckpointPolicy(index=index, actor=actor, trusted=trusted,
                            created_step=step)


def _tiny_actor(rng, dim=8, out=4):
    return Mlp([dim, 6, out], rng)


def test_activation_threshold_is_strict():
    rng = np.random.default_rng(3)
    u = rng.random(8)
    u /= np.linalg.norm(u)
    ts = TrustedStateSet(4, rng)
    ts.add_episode([u], 9.0)
    orch = Orchestra([_ckpt(1, _tiny_actor(rng), ts)])
    omega = 0.98
    just_above = _rotated(u, np.arccos(0.985), rng)
    just_below = _rotated(u, np.arccos(0.975), rng)
    assert expand_joined(orch, just_above, omega)[0].bitmask[0]
    assert not expand_joined(orch, just_below, omega)[0].bitmask[0]
    # exact match always activates
    assert expand_joined(orch, 3.0 * u, omega)[0].bitmask[0]


def test_an_all_zero_query_is_refused():
    rng = np.random.default_rng(4)
    ts, _ = _filled_set(rng, 5)
    source = JoinedSource(_tiny_actor(rng), Orchestra([_ckpt(1, _tiny_actor(rng), ts)]),
                          HopConfig())
    queries = np.ones((3, 8))
    queries[1] = 0.0
    with pytest.raises(ContractError, match="nonzero"):
        source.logits_and_aux(queries)
    with pytest.raises(ContractError, match="nonzero"):
        ts.find_most_similar(np.zeros(8))


# --- hierarchical recency weights ----------------------------------------------


def test_hierarchical_weight_fixtures():
    assert np.allclose(hierarchical_weights([0, 0, 0]), [0, 0, 0])
    # a single active checkpoint gets 1/2 regardless of position
    for m in range(4):
        bits = np.zeros(4, dtype=bool)
        bits[m] = True
        w = hierarchical_weights(bits)
        assert w[m] == 0.5 and w.sum() == 0.5
    assert np.allclose(hierarchical_weights([1, 1, 1]), [1 / 4, 1 / 3, 1 / 2])
    assert np.allclose(hierarchical_weights([1, 0, 1]), [1 / 3, 0, 1 / 2])


@given(st.lists(st.booleans(), min_size=1, max_size=12))
def test_hierarchical_weights_recency_monotone(bits):
    w = hierarchical_weights(np.array(bits, dtype=bool))
    active = [i for i, b in enumerate(bits) if b]
    assert all(w[i] == 0.0 for i, b in enumerate(bits) if not b)
    for a, b in zip(active, active[1:]):
        assert w[a] < w[b]  # newer active checkpoints always weigh more
    if active:
        assert w[active[-1]] == 0.5
    assert np.all((w >= 0.0) & (w <= 0.5))


# --- joined-logit expansion ----------------------------------------------------


def _oracle_joined(learner, checkpoints, state, omega):
    """Plain recursive evaluation of the joined policy, no memoization.

    Checkpoint m's own joined logits re-run the activation scan of
    checkpoints 1..m-1 against its best-matching trusted state.
    """

    def sub(m, state_m):  # joined logits of checkpoint m (0-based)
        logits = checkpoints[m].actor.forward_np(state_m[None, :])[0]
        bits, matches = scan(m, state_m)
        w = hierarchical_weights(bits)
        for j in range(m):
            if bits[j]:
                logits = logits + w[j] * sub(j, matches[j])
        return logits

    def scan(count, q):
        bits = np.zeros(count, dtype=bool)
        matches = [None] * count
        for j in range(count):
            sstar, sim, _ = checkpoints[j].trusted.find_most_similar(q)
            if sim > omega:
                bits[j] = True
                matches[j] = sstar
        return bits, matches

    logits = learner.forward_np(state[None, :])[0]
    bits, matches = scan(len(checkpoints), state)
    w = hierarchical_weights(bits)
    for m in range(len(checkpoints)):
        if bits[m]:
            logits = logits + w[m] * sub(m, matches[m])
    return logits


def joined_policy_logits(learner, orch, state, omega):
    """Joined logits of one state, through the program's JoinedSource."""
    source = JoinedSource(learner, orch, HopConfig(min_similarity_score=omega))
    return source.logits_and_aux(state[None, :])[0][0]


def _random_orchestra(rng, m, dim=8, states_per_ckpt=5, out=4, states=None):
    ckpts = []
    for i in range(m):
        if states is None:
            ts, _ = _filled_set(rng, states_per_ckpt, dim=dim)
        else:
            ts = TrustedStateSet(len(states), rng)
            ts.add_episode(rng.permutation(states)[:states_per_ckpt], 9.0)
        ckpts.append(_ckpt(i + 1, _tiny_actor(rng, dim, out), ts))
    return Orchestra(ckpts)


def test_joined_logits_match_recursive_oracle():
    rng = np.random.default_rng(11)
    # omega low enough that random nonnegative states activate often,
    # exercising deep recursion paths
    for omega in (0.5, 0.9):
        for m in range(1, 5):
            orch = _random_orchestra(rng, m)
            learner = _tiny_actor(rng)
            for _ in range(10):
                q = rng.random(8) + 0.01
                got = joined_policy_logits(learner, orch, q, omega)
                want = _oracle_joined(learner, orch.checkpoints, q, omega)
                assert np.abs(got - want).max() < 1e-10


def test_all_active_shared_state_coefficients():
    # Three checkpoints sharing one trusted state, queried with that state:
    # every scan re-activates everything, and the recursion folds into fixed
    # per-checkpoint coefficients 17/24, 7/12, 1/2. (The closed-form weights
    # 1/4, 1/3, 1/2 apply only to the top level; older checkpoints pick up
    # additional mass through the nested re-activation paths.)
    rng = np.random.default_rng(21)
    u = rng.random(8) + 0.01
    ckpts = []
    for i in range(3):
        ts = TrustedStateSet(4, rng)
        ts.add_episode([u], 9.0)
        ckpts.append(_ckpt(i + 1, _tiny_actor(rng), ts))
    orch = Orchestra(ckpts)
    _, terms = expand_joined(orch, u, 0.98)
    totals = np.zeros(3)
    for k, coeff, s in terms:
        assert np.array_equal(s, u)
        totals[k - 1] += coeff
    assert np.allclose(totals, [17 / 24, 7 / 12, 1 / 2], atol=1e-12)


def test_joined_source_matches_single_state_evaluation():
    rng = np.random.default_rng(31)
    orch = _random_orchestra(rng, 3, dim=OBS_DIM, out=N_ACTIONS)
    learner = Mlp([OBS_DIM, 8, N_ACTIONS], rng)
    cfg = HopConfig(min_similarity_score=0.6)
    source = JoinedSource(learner, orch, cfg)
    batch = rng.random((5, OBS_DIM)) + 0.01
    logits, aux = source.logits_and_aux(batch)
    for i in range(5):
        want = joined_policy_logits(learner, orch, batch[i],
                                    cfg.min_similarity_score)
        assert np.abs(logits[i] - want).max() < 1e-10
        assert len(aux[i]["bitmask"]) == 3


def _oracle_terms(checkpoints, state, omega):
    """Flattened (k, coeff, state) terms by plain recursion, each coefficient
    the weight at its level times the coefficient from the level below."""
    matches = [c.trusted.find_most_similar(state) for c in checkpoints]
    bits = np.array([sim > omega for _, sim, _ in matches], dtype=bool)
    w = hierarchical_weights(bits)
    terms = []
    for m in np.flatnonzero(bits):
        sstar = matches[m][0]
        terms.append((m + 1, float(w[m]), sstar))
        terms += [(k, float(w[m]) * coeff, s)
                  for k, coeff, s in _oracle_terms(checkpoints[:m], sstar, omega)]
    return terms


def _term_keys(aux):
    """Per row: bitmask and each active checkpoint's best match, which fix
    the row's terms through the joined index."""
    return [(a["bitmask"].tolist(), a["best"][a["bitmask"]].tolist()) for a in aux]


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_batched_expansion_matches_one_row_calls_and_the_oracle(m):
    rng = np.random.default_rng(80 + m)
    states = _level_states(rng)
    orch = _random_orchestra(rng, m, dim=OBS_DIM, states_per_ckpt=10,
                             out=N_ACTIONS, states=states)
    # Zero learner: a BLAS may round a matmul row differently by batch size,
    # so only the orchestra's part of the logits can be compared bit for bit.
    learner = Mlp([OBS_DIM, 8, N_ACTIONS], rng)
    for p in learner.parameters:
        p.data[...] = 0.0
    omega = 0.98
    elsewhere = _level_states(rng, LevelSpec("dodger", 2))[:4]
    batch = np.concatenate([states[::2], states[:5], elsewhere])
    source = JoinedSource(learner, orch, HopConfig(min_similarity_score=omega))
    logits, aux = source.logits_and_aux(batch)
    one = [source.logits_and_aux(q[None, :]) for q in batch]
    assert np.array_equal(logits, np.concatenate([lg for lg, _ in one]))
    assert _term_keys(aux) == _term_keys([a[0] for _, a in one])
    terms = []
    for q, a, got in zip(batch, aux, logits):
        assert len(a["bitmask"]) == m
        want = _oracle_joined(learner, orch.checkpoints, q, omega)
        assert np.abs(got - want).max() < 1e-10
        activation, row_terms = expand_joined(orch, q, omega)
        assert np.array_equal(activation.bitmask, a["bitmask"])
        assert a["best"].tolist() == [c.trusted.find_most_similar(q)[2]
                                      for c in orch.checkpoints]
        oracle = _oracle_terms(orch.checkpoints, q, omega)
        assert [(k, c, id(s)) for k, c, s in row_terms] == \
               [(k, c, id(s)) for k, c, s in oracle]
        terms.append(row_terms)
    if m:
        assert any(not a["bitmask"].any() for a in aux)
        assert any(a["bitmask"].any() for a in aux)
    if m >= 3:   # some activation recurses into older checkpoints
        assert any(len(t) > a["bitmask"].sum() for t, a in zip(terms, aux))


def test_exact_similarity_tie_breaks_to_the_lowest_index():
    rng = np.random.default_rng(90)
    s = rng.random(8) + 0.01
    ts = TrustedStateSet(8, rng)
    ts.add_episode([rng.random(8) + 0.01, s, 2.0 * s, rng.random(8) + 0.01], 9.0)
    assert np.array_equal(ts.matrix[1], ts.matrix[2])
    orch = Orchestra([_ckpt(1, _tiny_actor(rng), ts)])
    for q in (s, 2.0 * s, 3.0 * s):
        assert ts.find_most_similar(q)[2] == 1
        act, terms = expand_joined(orch, q, 0.98)
        assert act.bitmask.tolist() == [True]
        assert len(terms) == 1 and terms[0][2] is ts.raw[1]
    source = JoinedSource(_tiny_actor(rng), orch, HopConfig())
    _, aux = source.logits_and_aux(np.stack([3.0 * s, s, rng.random(8) + 0.01]))
    assert aux[0]["best"][0] == 1 and aux[1]["best"][0] == 1


def test_joined_source_follows_a_growing_orchestra():
    learner, _, orch, hop_cfg, _ = _hop_setup(3)
    states = _level_states(np.random.default_rng(1))
    grown = Orchestra([])
    source = JoinedSource(learner, grown, hop_cfg)
    for count in range(4):
        grown.checkpoints[:] = orch.checkpoints[:count]
        logits, aux = source.logits_and_aux(states)
        want, want_aux = JoinedSource(learner, grown, hop_cfg).logits_and_aux(states)
        assert np.array_equal(logits, want)
        assert _term_keys(aux) == _term_keys(want_aux)
        assert all(len(a["bitmask"]) == count for a in aux)


def _same_index(a, b):
    assert len(a) == len(b) and a.omega == b.omega
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.units_t, b.units_t)
    assert np.array_equal(a.table_ptr, b.table_ptr)
    assert all(np.array_equal(x, y) for x, y in zip(a.tables, b.tables))
    assert all(x is y for x, y in zip(a.checkpoints, b.checkpoints))


def test_orchestra_extends_its_index_as_checkpoints_are_appended():
    _, _, full, hop_cfg, _ = _hop_setup(4)
    omega = hop_cfg.min_similarity_score
    orch = Orchestra([])
    index = orch.joined_index(omega)
    for count in range(1, 5):
        orch.checkpoints.append(full.checkpoints[count - 1])
        assert orch.joined_index(omega) is index       # extended, not rebuilt
        _same_index(index, JoinedIndex(orch.checkpoints, omega))
    # anything but an append rebuilds: a replaced or dropped checkpoint,
    # another omega
    ckpt = orch.checkpoints[1]
    orch.checkpoints[1] = CheckpointPolicy(ckpt.index, ckpt.actor,
                                           orch.checkpoints[0].trusted, 0)
    rebuilt = orch.joined_index(omega)
    assert rebuilt is not index
    _same_index(rebuilt, JoinedIndex(orch.checkpoints, omega))
    orch.checkpoints.pop()
    _same_index(orch.joined_index(omega), JoinedIndex(orch.checkpoints, omega))
    assert orch.joined_index(0.9).omega == 0.9
    # the index is a cache: left out of pickling, rebuilt on first use
    back = pickle.loads(pickle.dumps(orch))
    assert back._index is None and orch._index is not None
    assert len(back.joined_index(0.9)) == 3


def test_routed_gradient_step_keeps_activations_and_terms():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    states = buffer.obs.reshape(-1, OBS_DIM)
    source = JoinedSource(learner, orch, hop_cfg)
    logits_before, before = source.logits_and_aux(states)
    assert any(a["bitmask"].any() for a in before) and hop_cfg.checkpoint_gradients
    weights = [c.actor.get_arrays() for c in orch.checkpoints]
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3),
                         np.random.default_rng(9))
    assert any(not np.array_equal(a, b) for c, arrs in zip(orch.checkpoints, weights)
               for a, b in zip(c.actor.get_arrays(), arrs))
    logits, after = source.logits_and_aux(states)
    fresh_logits, fresh = JoinedSource(learner, orch, hop_cfg).logits_and_aux(states)
    assert _term_keys(after) == _term_keys(before) == _term_keys(fresh)
    assert np.array_equal(logits, fresh_logits)
    # the stepped snapshots' logit tables were rebuilt: the orchestra's part
    # moved, and equals that of an index built from scratch
    active = before["bitmask"].any(axis=1)
    assert not np.array_equal(logits, logits_before)
    assert not np.array_equal(after["orchestra"][active], before["orchestra"][active])
    rebuilt = pickle.loads(pickle.dumps(orch))
    assert np.array_equal(logits, JoinedSource(learner, rebuilt, hop_cfg).logits_and_aux(states)[0])


def _record_forwards(learner, orch):
    """Log the update's forward passes: None for each learner forward, which
    opens a minibatch, and ``(k, input rows)`` for each snapshot forward."""
    log = []

    def wrap(net, name, key):
        method = getattr(net, name)

        def recorded(x, *args, **kwargs):
            if key is None:
                log.append(None)
            else:
                log.append((key, [r.tobytes() for r in np.atleast_2d(x)]))
            return method(x, *args, **kwargs)

        setattr(net, name, recorded)

    wrap(learner, "forward", None)
    for c in orch.checkpoints:
        wrap(c.actor, "forward", c.index)
        wrap(c.actor, "forward_np", c.index)
    return log


def test_frozen_snapshots_run_no_forward_in_the_update():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
    hop_cfg.checkpoint_gradients = False
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    assert any(a["bitmask"].any() for row in buffer.aux for a in row)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    log = _record_forwards(learner, orch)
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3),
                         np.random.default_rng(9))
    assert log and all(entry is None for entry in log)


def test_routed_minibatch_forwards_each_distinct_state_once():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    log = _record_forwards(learner, orch)
    stats = masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                 Adam(learner.parameters, 1e-3),
                                 Adam(critic.parameters, 1e-3),
                                 np.random.default_rng(9))
    minibatches = []
    for entry in log:
        if entry is None:
            minibatches.append([])
        else:
            minibatches[-1].extend((entry[0], row) for row in entry[1])
    assert len(minibatches) == stats.epochs_run * ppo_cfg.num_minibatches
    for forwarded in minibatches:
        assert len(forwarded) == len(set(forwarded))
    # the buffer's terms share states, so forwarding each once saves rows
    records = np.concatenate(buffer.aux)
    index = orch.joined_index(hop_cfg.min_similarity_score)
    terms = index.terms(records["best"], records["bitmask"])
    assert 0 < sum(map(len, minibatches)) < stats.epochs_run * len(terms.k)


def test_logit_tables_are_left_out_of_pickles():
    learner, _, orch, hop_cfg, _ = _hop_setup(3)
    size = len(pickle.dumps(orch))
    JoinedSource(learner, orch, hop_cfg).logits_and_aux(_level_states(np.random.default_rng(2)))
    assert orch._index.logit_table().shape == (orch._index.offsets[-1], N_ACTIONS)
    assert len(pickle.dumps(orch)) == size


# --- trusted-state bookkeeping --------------------------------------------------


def test_trusted_set_deduplicates_exact_states():
    rng = np.random.default_rng(5)
    ts, states = _filled_set(rng, 20)
    n = len(ts)
    ts.add_episode(states, 9.0)  # every state already present
    assert len(ts) == n
    with pytest.raises(ContractError):
        ts.add_episode([np.zeros(8)], 9.0)


def test_reservoir_keeps_uniform_inclusion_frequencies():
    cap, n, trials = 10, 25, 2000
    counts = np.zeros(n)
    for t in range(trials):
        ts = TrustedStateSet(cap, np.random.default_rng(t))
        states = [np.eye(n)[i] for i in range(n)]
        ts.add_episode(states, 9.0)
        assert len(ts) == cap
        for s in ts.raw:
            counts[int(np.argmax(s))] += 1
    assert counts.sum() == trials * cap
    expected = trials * cap / n
    sigma = np.sqrt(trials * (cap / n) * (1 - cap / n))
    assert np.abs(counts - expected).max() < 5 * sigma


def test_checkpoint_gate_rejects_when_every_episode_fails():
    rng = np.random.default_rng(40)
    learner = Mlp([OBS_DIM, 8, N_ACTIONS], rng)
    orch = Orchestra()
    # a fresh near-uniform policy on dodger levels cannot clear 7.5 in 30 steps
    cfg = HopConfig(reward_limit=7.5, eval_episodes=6)
    out = checkpoint_now(learner, orch, [LevelSpec("dodger", 1)], cfg,
                         max_eval_ep_len=30, rng=rng, created_step=0,
                         learning_rate=1e-3)
    assert out is None
    assert len(orch) == 0


def test_checkpoint_harvests_unit_states_from_passing_episodes():
    rng = np.random.default_rng(41)
    learner = Mlp([OBS_DIM, 8, N_ACTIONS], rng)
    orch = Orchestra()
    cfg = HopConfig(reward_limit=-100.0, eval_episodes=4)  # every episode passes
    ckpt = checkpoint_now(learner, orch, [LevelSpec("runner", 1)], cfg,
                          max_eval_ep_len=25, rng=rng, created_step=123,
                          learning_rate=1e-3)
    assert ckpt is not None and len(orch) == 1
    assert ckpt.index == 1 and ckpt.created_step == 123
    assert len(ckpt.trusted) > 0
    assert np.allclose(np.linalg.norm(ckpt.trusted.matrix, axis=1), 1.0)
    # the frozen actor is a snapshot, not an alias
    learner.parameters[0].data += 1.0
    assert not np.array_equal(ckpt.actor.parameters[0].data,
                              learner.parameters[0].data)
    assert ckpt.opt is not None  # gradient routing enabled by default


# --- masked gradient routing -----------------------------------------------------


def _level_states(rng, spec=LevelSpec("runner", 1)):
    """Observations of one random-action episode."""
    env = EnvInstance(spec, max_ep_length=40)
    states = [env.observation()]
    while not env.done:
        env.step(int(rng.integers(0, 4)))
        if not env.done:
            states.append(env.observation())
    return np.stack(states)


def _hop_setup(m_ckpts, seed=50, omega=0.6):
    rng = np.random.default_rng(seed)
    learner = Mlp([OBS_DIM, 8, N_ACTIONS], rng)
    critic = Mlp([OBS_DIM, 8, 1], rng)
    # trusted sets drawn from genuine level observations so the similarity
    # scan actually activates during the rollout
    orch = _random_orchestra(rng, m_ckpts, dim=OBS_DIM, states_per_ckpt=10,
                             out=N_ACTIONS, states=_level_states(rng))
    for c in orch.checkpoints:
        c.opt = Adam(c.actor.parameters, 1e-3)
    hop_cfg = HopConfig(min_similarity_score=omega)
    ppo_cfg = PpoConfig(num_steps=8, num_envs=2, num_minibatches=2,
                        update_epochs=2)
    return learner, critic, orch, hop_cfg, ppo_cfg


def _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg, seed=7):
    from orchestra.envs import VecEnv
    vec = VecEnv([LevelSpec("runner", 1), LevelSpec("runner", 2)],
                 ppo_cfg.num_envs, max_ep_length=40)
    source = JoinedSource(learner, orch, hop_cfg)
    return collect_rollout(source, vec, critic.forward_np, ppo_cfg,
                           np.random.default_rng(seed))


def test_masked_update_with_empty_orchestra_equals_plain_update():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(0)
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)

    l2, c2 = learner.clone(), critic.clone()
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3),
                         np.random.default_rng(9))
    ppo_update(buffer, gae, l2, c2, ppo_cfg,
               Adam(l2.parameters, 1e-3), Adam(c2.parameters, 1e-3),
               np.random.default_rng(9))
    for a, b in zip(learner.get_arrays(), l2.get_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(critic.get_arrays(), c2.get_arrays()):
        assert np.array_equal(a, b)


def test_frozen_checkpoints_stay_bit_identical():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(2)
    hop_cfg.checkpoint_gradients = False
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    assert any(a["bitmask"].any() for row in buffer.aux for a in row)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    before = [c.actor.get_arrays() for c in orch.checkpoints]
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3),
                         np.random.default_rng(9))
    for c, arrs in zip(orch.checkpoints, before):
        for a, b in zip(c.actor.get_arrays(), arrs):
            assert np.array_equal(a, b)


def test_learner_attributes_store_and_train_the_learner_alone():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(2)
    hop_cfg.attributes = "learner"
    hop_cfg.checkpoint_gradients = True
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    assert any(a["bitmask"].any() for row in buffer.aux for a in row)
    # the stored log-prob is the learner's at the sampled action, and the
    # joined policy the actions were sampled from differs from it
    source = JoinedSource(learner, orch, hop_cfg)
    envs = np.arange(buffer.num_envs)
    joined_differs = False
    for t in range(buffer.num_steps):
        learner_logp = ad.log_softmax_np(learner.forward_np(buffer.obs[t]))
        assert np.array_equal(buffer.logprobs[t], learner_logp[envs, buffer.actions[t]])
        joined_logp = ad.log_softmax_np(source.logits_and_aux(buffer.obs[t])[0])
        joined_differs |= not np.array_equal(joined_logp, learner_logp)
    assert joined_differs

    # the update's logits are the learner's alone: it matches plain PPO and
    # leaves every snapshot and its Adam state as they were
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    snapshots = copy.deepcopy([(c.actor.get_arrays(), c.opt.m, c.opt.v, c.opt.step_count)
                               for c in orch.checkpoints])
    l2, c2 = learner.clone(), critic.clone()
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3),
                         np.random.default_rng(9))
    ppo_update(buffer, gae, l2, c2, ppo_cfg,
               Adam(l2.parameters, 1e-3), Adam(c2.parameters, 1e-3),
               np.random.default_rng(9))
    for a, b in zip(learner.get_arrays() + critic.get_arrays(),
                    l2.get_arrays() + c2.get_arrays()):
        assert np.array_equal(a, b)
    for c, (arrays, m, v, steps) in zip(orch.checkpoints, snapshots):
        assert c.opt.step_count == steps == 0
        for a, b in zip(c.actor.get_arrays() + c.opt.m + c.opt.v, arrays + m + v):
            assert np.array_equal(a, b)


def test_routing_flag_does_not_change_learner_gradients():
    # with checkpoint learning rate 0 and no gradient clipping, routing
    # gradients into checkpoints must leave the learner update bit-identical
    # to treating every checkpoint contribution as a constant
    results = []
    for flag in (True, False):
        learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(2)
        hop_cfg.checkpoint_gradients = flag
        ppo_cfg.max_grad_norm = np.inf
        for c in orch.checkpoints:
            c.opt = Adam(c.actor.parameters, 0.0)
        buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
        gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda,
                          norm_adv=True)
        masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg,
                             hop_cfg, Adam(learner.parameters, 1e-3),
                             Adam(critic.parameters, 1e-3),
                             np.random.default_rng(9))
        results.append(learner.get_arrays())
    for a, b in zip(*results):
        assert np.allclose(a, b, atol=1e-12)


def _crafted_buffer(learner, orch, hop_cfg, bitmasks, rng):
    """4-step, 1-env buffer with hand-set activation bitmasks, and the records
    a joined act with those activations stores."""
    dim = learner.sizes[0]
    obs = rng.random((4, 1, dim)) + 0.01
    index = orch.joined_index(hop_cfg.min_similarity_score)
    best, _ = index.scan(obs[:, 0, :], len(index))
    bits = np.asarray(bitmasks, dtype=bool)
    learner_logits = learner.forward_np(obs[:, 0, :])
    contribution = index.contribution(best, bits)
    aux = [joined_records(bits[t:t + 1], best[t:t + 1], contribution[t:t + 1],
                          learner_logits[t:t + 1]) for t in range(4)]
    logp = ad.log_softmax_np(learner_logits + contribution)
    actions = np.array([[int(np.argmax(logp[t]))] for t in range(4)])
    return RolloutBuffer(
        obs=obs, actions=actions,
        rewards=rng.random((4, 1)), dones=np.zeros((4, 1), dtype=bool),
        logprobs=np.array([[logp[t, actions[t, 0]]] for t in range(4)]),
        values=np.zeros((4, 1)), bootstrap=np.zeros(1), aux=aux,
    )


def test_gradient_routing_respects_the_stored_bitmask():
    rng = np.random.default_rng(60)
    learner = Mlp([6, 8, 4], rng)
    critic = Mlp([6, 8, 1], rng)
    orch = _random_orchestra(rng, 2, dim=6)
    hop_cfg = HopConfig(min_similarity_score=0.5)
    ppo_cfg = PpoConfig(num_steps=4, num_envs=1, num_minibatches=1,
                        update_epochs=1, target_kl=np.inf)
    # checkpoint 1 active on rows 0-1, checkpoint 2 never active
    buffer = _crafted_buffer(learner, orch, hop_cfg,
                             [[1, 0], [1, 0], [0, 0], [0, 0]], rng)
    gae = GaeOutput(rng.standard_normal((4, 1)), rng.random((4, 1)))
    for c in orch.checkpoints:
        c.opt = Adam(c.actor.parameters, 0.0)
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 0.0),
                         Adam(critic.parameters, 0.0),
                         np.random.default_rng(1))
    g1 = [p.grad for p in orch.checkpoints[0].actor.parameters]
    g2 = [p.grad for p in orch.checkpoints[1].actor.parameters]
    assert any(g is not None and np.abs(g).max() > 0 for g in g1)
    assert all(g is None or np.abs(g).max() == 0 for g in g2)


def test_checkpoint_inactive_in_a_minibatch_keeps_its_state():
    rng = np.random.default_rng(62)
    learner = Mlp([6, 8, 4], rng)
    critic = Mlp([6, 8, 1], rng)
    orch = _random_orchestra(rng, 2, dim=6)
    hop_cfg = HopConfig(min_similarity_score=0.5)
    ppo_cfg = PpoConfig(num_steps=4, num_envs=1, num_minibatches=1,
                        update_epochs=1, target_kl=np.inf)
    for c in orch.checkpoints:
        c.opt = Adam(c.actor.parameters, 1e-3)
    opts = Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3)

    def update(bitmasks):
        buffer = _crafted_buffer(learner, orch, hop_cfg, bitmasks, rng)
        gae = GaeOutput(rng.standard_normal((4, 1)), rng.random((4, 1)))
        masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg,
                             hop_cfg, *opts, np.random.default_rng(1))

    def state(c):
        return c.actor.get_arrays() + c.opt.m + c.opt.v, c.opt.step_count

    update([[1, 0], [1, 0], [0, 0], [0, 0]])   # routes into checkpoint 1
    first, second = orch.checkpoints
    before = [copy.deepcopy(state(c)) for c in orch.checkpoints]
    update([[0, 1], [0, 0], [0, 1], [0, 0]])   # checkpoint 1 inactive throughout
    arrays, steps = state(first)
    assert steps == before[0][1] == 1
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before[0][0]))
    assert state(second)[1] == 1
    assert any(not np.array_equal(a, b)
               for a, b in zip(second.actor.get_arrays(), before[1][0]))


def test_bitmask_length_mismatch_is_rejected():
    rng = np.random.default_rng(61)
    learner = Mlp([6, 8, 4], rng)
    critic = Mlp([6, 8, 1], rng)
    orch = _random_orchestra(rng, 1, dim=6)
    hop_cfg = HopConfig(min_similarity_score=0.5)
    ppo_cfg = PpoConfig(num_steps=4, num_envs=1, num_minibatches=1,
                        update_epochs=1)
    buffer = _crafted_buffer(learner, orch, hop_cfg,
                             [[1], [0], [0], [0]], rng)
    orch.checkpoints.append(orch.checkpoints[0])  # M grew after collection
    with pytest.raises(ContractError):
        masked_policy_update(buffer, GaeOutput(np.zeros((4, 1)), np.zeros((4, 1))),
                             learner, critic, orch, ppo_cfg, hop_cfg,
                             Adam(learner.parameters, 0.0),
                             Adam(critic.parameters, 0.0),
                             np.random.default_rng(1))


def test_routed_gradients_need_an_optimizer_on_every_checkpoint():
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(2)
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    orch.checkpoints[1].opt = None

    def update():
        return masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                    Adam(learner.parameters, 1e-3),
                                    Adam(critic.parameters, 1e-3),
                                    np.random.default_rng(9))

    weights = learner.get_arrays()
    with pytest.raises(ContractError, match="optimizer"):
        update()
    assert all(np.array_equal(a, b) for a, b in zip(learner.get_arrays(), weights))
    # frozen snapshots need none
    hop_cfg.checkpoint_gradients = False
    update()


# --- serialization -----------------------------------------------------------------


@pytest.mark.parametrize("layout", ["raw", "raw+units"])
def test_checkpoint_bundle_round_trip(tmp_path, layout):
    rng = np.random.default_rng(70)
    ts, states = _filled_set(rng, 1200, dim=OBS_DIM)
    ckpt = _ckpt(3, Mlp([OBS_DIM, 256, 256, N_ACTIONS], rng), ts, step=4096)
    save_checkpoint(ckpt, tmp_path / "ckpt", HopConfig())
    # an archive that also holds unit vectors, out of order: the loader must
    # ignore them and derive the similarity scan from raw
    if layout == "raw+units":
        with np.load(tmp_path / "ckpt" / "arrays.npz") as arrays:
            kept = dict(arrays)
        np.savez(tmp_path / "ckpt" / "arrays.npz", **kept, units=ts.matrix[::-1])
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["arrays.npz",
                                                                   "manifest.json"]
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.index == 3 and loaded.created_step == 4096
    assert loaded.actor.sizes == ckpt.actor.sizes
    assert [p.data.tobytes() for p in loaded.actor.parameters] == \
           [p.data.tobytes() for p in ckpt.actor.parameters]
    assert [s.tobytes() for s in loaded.trusted.raw] == [s.tobytes() for s in ts.raw]
    assert np.asarray(loaded.trusted.episode_returns).tobytes() == \
           np.asarray(ts.episode_returns).tobytes()
    assert_parameters_stay_aligned(loaded.actor.parameters)
    q = rng.random(OBS_DIM)
    assert ckpt.trusted.find_most_similar(q)[1:] == loaded.trusted.find_most_similar(q)[1:]
    # the loaded set still deduplicates against what it stores
    loaded.trusted.add_episode([states[5]], 9.0)
    assert len(loaded.trusted) == len(ts)


TRIPPED = []


def _trip():
    TRIPPED.append(True)


class _Tripwire:
    """An object whose unpickling records that it happened."""

    def __reduce__(self):
        return _trip, ()


def test_a_bundle_holding_an_object_array_is_refused(tmp_path):
    rng = np.random.default_rng(72)
    ts, _ = _filled_set(rng, 4, dim=OBS_DIM)
    save_checkpoint(_ckpt(1, Mlp([OBS_DIM, 8, N_ACTIONS], rng), ts), tmp_path, HopConfig())
    with np.load(tmp_path / "arrays.npz") as arrays:
        kept = dict(arrays)
    np.savez(tmp_path / "arrays.npz", **{**kept, "raw": np.array([_Tripwire()] * 4)})
    with pytest.raises(ValueError, match="allow_pickle"):
        load_checkpoint(tmp_path)
    assert TRIPPED == []


def test_actor_arrays_that_do_not_fit_the_actor_sizes_are_refused(tmp_path):
    rng = np.random.default_rng(73)
    ts, _ = _filled_set(rng, 4, dim=OBS_DIM)
    save_checkpoint(_ckpt(1, Mlp([OBS_DIM, 8, N_ACTIONS], rng), ts), tmp_path, HopConfig())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (tmp_path / "manifest.json").write_text(
        json.dumps({**manifest, "actor_sizes": [OBS_DIM, 9, N_ACTIONS]}))
    with pytest.raises(DimensionError):
        load_checkpoint(tmp_path)


def test_pickled_trusted_set_leaves_out_its_matrix():
    rng = np.random.default_rng(71)
    ts, _ = _filled_set(rng, 30, dim=OBS_DIM)
    back = pickle.loads(pickle.dumps(ts))
    assert not {"units", "_matrix"} & set(back.__dict__)
    assert np.array_equal(back.matrix, ts.matrix)


def test_trusted_set_keeps_digests_of_every_ingested_state():
    rng = np.random.default_rng(73)
    ts, states = _filled_set(rng, 25, dim=OBS_DIM, cap=10)   # 15 evicted
    assert len(ts._seen) == 25 and all(len(key) == 16 for key in ts._seen)
    ingested = ts._ingested
    ts.add_episode(states, 9.0)          # evicted states are still known
    assert ts._ingested == ingested
