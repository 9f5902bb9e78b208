import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchestra.envs import (CH_AGENT, FAMILIES, GRID, EnvInstance, LevelSpec,
                            MOVES, N_ACTIONS, OBS_DIM, StepResult, VecEnv,
                            generate_layout)
from orchestra.errors import ConfigError, ContractError

# hand-solved optimal route for (runner, seed=7), found with a BFS oracle
RUNNER7_SCRIPT = [0, 0, 3, 3, 3, 0, 3, 0, 3, 3, 3, 3]


def test_same_spec_generates_identical_levels():
    a = EnvInstance(LevelSpec("runner", 7))
    b = EnvInstance(LevelSpec("runner", 7))
    assert np.array_equal(a.observation(), b.observation())
    # generated again, past the per-level cache
    fresh = generate_layout.__wrapped__(LevelSpec("runner", 7))
    assert np.array_equal(fresh.walls, a.layout.walls)
    assert (fresh.start, fresh.goal, fresh.cues, fresh.static_hazards, fresh.tracks) == \
        (a.layout.start, a.layout.goal, a.layout.cues, a.layout.static_hazards, a.layout.tracks)


# the digest of every generated level of seeds 0-999 per family: a change to
# level generation, or to numpy's Generator streams, changes it
LEVELS_DIGEST = "104ab3359d195efcd3019338668401a6f3ec9ee3d7a39bb954c9d757f9dafd66"


def test_level_generation_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for family in FAMILIES:
        for seed in range(1000):
            layout = generate_layout.__wrapped__(LevelSpec(family, seed))
            digest.update(layout.walls.tobytes())
            digest.update(repr((layout.start, layout.goal, layout.cues,
                                layout.static_hazards, layout.tracks)).encode())
    assert digest.hexdigest() == LEVELS_DIGEST


def test_different_seeds_differ():
    a = EnvInstance(LevelSpec("runner", 7))
    b = EnvInstance(LevelSpec("runner", 8))
    assert not np.array_equal(a.observation(), b.observation())


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        EnvInstance(LevelSpec("swimmer", 1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(1, 21))
def test_generated_levels_have_reachable_goal(family, seed):
    """Independent flood-fill oracle over static cells (walls only)."""
    layout = generate_layout(LevelSpec(family, seed))
    passable = ~layout.walls
    seen = {layout.start}
    q = deque([layout.start])
    while q:
        r, c = q.popleft()
        for dr, dc in MOVES.values():
            nr, nc = r + dr, c + dc
            if 0 <= nr < GRID and 0 <= nc < GRID and passable[nr, nc] \
                    and (nr, nc) not in seen:
                seen.add((nr, nc))
                q.append((nr, nc))
    assert layout.goal in seen


def test_reset_idempotent_and_single_agent_cell():
    # an episode starts on a fresh instance
    o1 = EnvInstance(LevelSpec("dodger", 3)).observation()
    o2 = EnvInstance(LevelSpec("dodger", 3)).observation()
    assert np.array_equal(o1, o2)
    assert o1[:GRID * GRID].sum() == 1.0  # exactly one agent cell
    assert o1.shape == (OBS_DIM,)
    assert set(np.unique(o1)) <= {0.0, 1.0}


def test_reset_after_episode_restores_initial_observation():
    env = EnvInstance(LevelSpec("runner", 7))
    initial = env.observation().copy()
    for a in RUNNER7_SCRIPT:
        env.step(a)
    assert env.done
    # the level's shared layout came through the episode unchanged
    assert np.array_equal(EnvInstance(LevelSpec("runner", 7)).observation(), initial)


def test_wall_bump_is_noop():
    env = EnvInstance(LevelSpec("runner", 7))
    # start is on the left edge; moving left is blocked by the boundary
    before = env.agent
    res = env.step(2)
    assert env.agent == before
    assert res.reward == 0.0


def test_scripted_optimal_route_scores_completion():
    env = EnvInstance(LevelSpec("runner", 7))
    total = sum(env.step(a).reward for a in RUNNER7_SCRIPT)
    assert total == 10.0
    assert env.done


def test_truncation_at_max_ep_length():
    env = EnvInstance(LevelSpec("runner", 7), max_ep_length=5)
    for _ in range(4):
        assert not env.step(5).done  # action 5 is a no-op
    assert env.step(5).done


@pytest.mark.parametrize("family,seed,script,cell", [
    ("runner", 1, [1], (5, 0)),         # moves down onto a hazard
    ("runner", 7, [4], (7, 2)),         # dashes two cells onto a hazard
    ("climber", 1, [3, 3], (8, 3)),     # would walk onto the hazard at (8, 4)
])
def test_a_death_leaves_the_agent_where_it_died(family, seed, script, cell):
    """A runner stands on the hazard that killed it; a climber stays put."""
    env = EnvInstance(LevelSpec(family, seed))
    results = [env.step(a) for a in script]
    assert results[-1] == StepResult(0.0, True) and env.done
    assert env.agent == cell
    assert (cell in env.layout.static_hazards) == (family == "runner")
    agent = env.observation()[:GRID * GRID].reshape(GRID, GRID)
    assert agent[cell] == 1.0 and agent.sum() == 1.0


def test_step_after_done_raises():
    env = EnvInstance(LevelSpec("runner", 7), max_ep_length=1)
    env.step(5)
    with pytest.raises(ContractError):
        env.step(5)


def test_invalid_action_rejected():
    env = EnvInstance(LevelSpec("runner", 7))
    with pytest.raises(ContractError):
        env.step(8)


def test_vec_step_single_env_matches_plain_step():
    vec = VecEnv([LevelSpec("runner", 7)], num_envs=1)
    env = EnvInstance(LevelSpec("runner", 7))
    for a in RUNNER7_SCRIPT[:-1]:
        r_vec = vec.vec_step([a])[0]
        r_env = env.step(a)
        assert r_vec == r_env
        assert np.array_equal(vec.observations()[0], env.observation())


def test_vec_step_matches_sequential_oracle():
    """Step a VecEnv against an independent re-implementation of its
    sequential protocol (per-slot stepping, shared rotation cursor)."""
    specs = [LevelSpec("dodger", s) for s in (1, 2, 3)]
    vec = VecEnv(specs, num_envs=3, max_ep_length=50)
    cursor = 3
    solo = [EnvInstance(specs[i], 50) for i in range(3)]
    rng = np.random.default_rng(0)
    for _ in range(120):
        actions = rng.integers(0, N_ACTIONS, size=3)
        results = vec.vec_step(actions)
        observed = vec.observations()
        for i, res in enumerate(results):
            r = solo[i].step(int(actions[i]))
            assert r == res
            if r.done:
                solo[i] = EnvInstance(specs[cursor % len(specs)], 50)
                cursor += 1
            assert np.array_equal(solo[i].observation(), observed[i])


def test_vec_step_auto_resets_done_env():
    vec = VecEnv([LevelSpec("runner", 7)], num_envs=1, max_ep_length=2)
    vec.vec_step([5])
    res = vec.vec_step([5])
    assert res[0].done
    fresh = EnvInstance(LevelSpec("runner", 7))
    assert vec.envs[0].episode_steps == 0
    assert np.array_equal(vec.observations()[0], fresh.observation())
    # next call steps the fresh episode without error
    vec.vec_step([5])


def test_vec_step_length_mismatch():
    vec = VecEnv([LevelSpec("runner", 7)], num_envs=2)
    with pytest.raises(ContractError):
        vec.vec_step([0])


@given(st.sampled_from(FAMILIES), st.integers(1, 500), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_trajectory_is_pure_function_of_spec_and_actions(family, seed, action_seed):
    rng = np.random.default_rng(action_seed)
    actions = rng.integers(0, N_ACTIONS, size=40)
    traces = []
    for _ in range(2):
        env = EnvInstance(LevelSpec(family, seed), max_ep_length=40)
        trace = []
        for a in actions:
            res = env.step(int(a))
            trace.append((res.reward, res.done, env.agent, env.observation().tobytes()))
            if res.done:
                break
        traces.append(trace)
    assert traces[0] == traces[1]


@given(st.sampled_from(FAMILIES), st.integers(1, 200), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_episodic_return_bounded(family, seed, action_seed):
    rng = np.random.default_rng(action_seed)
    env = EnvInstance(LevelSpec(family, seed), max_ep_length=300)
    total = 0.0
    while not env.done:
        total += env.step(int(rng.integers(0, N_ACTIONS))).reward
    assert 0.0 <= total <= 12.0


def test_layouts_are_generated_once_per_level_and_read_only():
    spec = LevelSpec("climber", 4)
    layout = generate_layout(spec)
    assert generate_layout(LevelSpec("climber", 4)) is layout
    assert EnvInstance(spec).layout is layout
    assert generate_layout(LevelSpec("climber", 5)) is not layout
    with pytest.raises(ValueError):
        layout.walls[0, 0] = not layout.walls[0, 0]
