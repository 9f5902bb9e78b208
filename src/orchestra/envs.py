"""MiniProc: a seeded, procedurally generated gridworld suite.

Three families share one 405-float observation (9x9 grid, 5 one-hot
channels) and one 8-action space so a single policy network can act in any
of them:

* runner  -- start on the left wall, goal on the right, static hazards.
* climber -- platforms with gravity; jump two cells up to land on ledges.
* dodger  -- hazards patrol deterministic tracks; timing matters.

Levels are pure functions of (family, level_seed): generation, dynamics and
hazard motion use no runtime randomness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError

GRID = 9
N_CHANNELS = 5
OBS_DIM = GRID * GRID * N_CHANNELS  # 405
N_ACTIONS = 8

CH_AGENT, CH_GOAL, CH_HAZARD, CH_WALL, CH_CUE = range(N_CHANNELS)

FAMILIES = ("runner", "climber", "dodger")
_FAMILY_CODE = {f: i + 1 for i, f in enumerate(FAMILIES)}

# actions 0..3 move; 4 is the family-interpreted special; 5..7 are no-ops
MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}

COMPLETION_REWARD = 10.0
CUE_REWARD = 1.0


@dataclass(frozen=True)
class LevelSpec:
    family: str
    level_seed: int


@dataclass(frozen=True)
class HazardTrack:
    """A patrolling hazard: triangle-wave offset along one axis."""

    home: tuple[int, int]
    axis: int  # 0 = vertical, 1 = horizontal
    amplitude: int

    def position(self, step: int) -> tuple[int, int]:
        period = 4 * self.amplitude
        phase = step % period
        off = phase if phase <= 2 * self.amplitude else period - phase
        off -= self.amplitude
        r, c = self.home
        return (r + off, c) if self.axis == 0 else (r, c + off)


@dataclass(frozen=True)
class Layout:
    walls: np.ndarray  # bool (9, 9), read-only: a layout is shared by every env of its level
    start: tuple[int, int]
    goal: tuple[int, int]
    cues: tuple[tuple[int, int], ...]
    static_hazards: tuple[tuple[int, int], ...]
    tracks: tuple[HazardTrack, ...]

    def __post_init__(self):
        self.walls.setflags(write=False)


@dataclass
class StepResult:
    reward: float
    done: bool


def _level_rng(spec: LevelSpec) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_FAMILY_CODE[spec.family], spec.level_seed & 0xFFFFFFFFFFFFFFFF])
    )


def _bfs_reachable(passable: np.ndarray, start, goal) -> bool:
    seen = np.zeros_like(passable, dtype=bool)
    stack = [start]
    seen[start] = True
    while stack:
        r, c = stack.pop()
        if (r, c) == goal:
            return True
        for dr, dc in MOVES.values():
            nr, nc = r + dr, c + dc
            if 0 <= nr < GRID and 0 <= nc < GRID and passable[nr, nc] and not seen[nr, nc]:
                seen[nr, nc] = True
                stack.append((nr, nc))
    return False


def _sample_empty(rng, occupied: set, n: int, allowed=None) -> list[tuple[int, int]]:
    cells = [
        (r, c)
        for r in range(GRID)
        for c in range(GRID)
        if (r, c) not in occupied and (allowed is None or (r, c) in allowed)
    ]
    idx = rng.choice(len(cells), size=min(n, len(cells)), replace=False)
    return [cells[i] for i in np.atleast_1d(idx)]


def _gen_runner(rng) -> Optional[Layout]:
    start = (int(rng.integers(0, GRID)), 0)
    goal = (int(rng.integers(0, GRID)), GRID - 1)
    walls = rng.random((GRID, GRID)) < 0.18
    walls[start] = False
    walls[goal] = False
    occupied = {start, goal} | {
        (r, c) for r in range(GRID) for c in range(GRID) if walls[r, c]
    }
    hazards = tuple(_sample_empty(rng, occupied, 3))
    occupied |= set(hazards)
    cues = tuple(_sample_empty(rng, occupied, 2))
    passable = ~walls
    for h in hazards:
        passable[h] = False
    if not _bfs_reachable(passable, start, goal):
        return None
    return Layout(walls, start, goal, cues, hazards, ())


def _gen_climber(rng) -> Optional[Layout]:
    walls = np.zeros((GRID, GRID), dtype=bool)
    platform_rows = (7, 5, 3, 1)
    prev_cols: Optional[set] = None
    for row in platform_rows:
        width = int(rng.integers(3, 6))
        left = int(rng.integers(0, GRID - width + 1))
        cols = set(range(left, left + width))
        if prev_cols is not None and not (cols & prev_cols):
            # force a jumpable overlap column with the platform below
            anchor = int(rng.choice(sorted(prev_cols)))
            lo = max(0, min(anchor, GRID - width))
            cols = set(range(lo, lo + width))
        for c in cols:
            walls[row, c] = True
        prev_cols = cols
    start = (GRID - 1, int(rng.integers(0, GRID)))
    top_cols = sorted(c for c in range(GRID) if walls[1, c])
    goal = (0, int(rng.choice(top_cols)))
    walls[start] = False
    walls[goal] = False
    occupied = {start, goal} | {
        (r, c) for r in range(GRID) for c in range(GRID) if walls[r, c]
    }
    # hazards live on the floor so falls are punished; keep clear of the start
    floor = {(GRID - 1, c) for c in range(GRID)} - occupied
    floor -= {(GRID - 1, start[1] - 1), (GRID - 1, start[1] + 1)}
    hazards = tuple(_sample_empty(rng, occupied, 2, allowed=floor))
    occupied |= set(hazards)
    # cues sit on intermediate stand cells (one row above a platform)
    stands = {
        (row - 1, c)
        for row in platform_rows[:3]
        for c in range(GRID)
        if walls[row, c] and not walls[row - 1, c] and (row - 1, c) not in occupied
    }
    cues = tuple(_sample_empty(rng, occupied, 2, allowed=stands))
    layout = Layout(walls, start, goal, cues, hazards, ())
    if not _climber_reachable(layout):
        return None
    return layout


def _climber_reachable(layout: Layout) -> bool:
    """BFS over the actual climber dynamics (moves + jump + gravity)."""
    seen = {layout.start}
    stack = [layout.start]
    hazards = set(layout.static_hazards)
    while stack:
        pos = stack.pop()
        if pos == layout.goal:
            return True
        for action in range(N_ACTIONS):
            nxt = _climber_move(layout, pos, action, hazards)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _supported(walls: np.ndarray, pos) -> bool:
    r, c = pos
    return r == GRID - 1 or walls[r + 1, c]


def _climber_move(layout: Layout, pos, action: int, hazards: set):
    """One climber transition; returns the new cell or None on death."""
    walls = layout.walls
    r, c = pos
    if action in MOVES:
        dr, dc = MOVES[action]
        nr, nc = r + dr, c + dc
        if 0 <= nr < GRID and 0 <= nc < GRID and not walls[nr, nc]:
            r, c = nr, nc
    elif action == 4 and _supported(walls, pos):
        # leap two cells up (an arc over any intermediate cell)
        if r - 2 >= 0 and not walls[r - 2, c]:
            r = r - 2
    # gravity: fall to the first supported cell below
    while r < GRID - 1 and not walls[r + 1, c]:
        if (r, c) in hazards:
            return None
        r += 1
    if (r, c) in hazards:
        return None
    return (r, c)


def _gen_dodger(rng) -> Optional[Layout]:
    start = (int(rng.integers(0, GRID)), 0)
    goal = (int(rng.integers(0, GRID)), GRID - 1)
    walls = rng.random((GRID, GRID)) < 0.12
    walls[start] = False
    walls[goal] = False
    tracks = []
    for _ in range(3):
        axis = int(rng.integers(0, 2))
        amp = 2
        if axis == 0:
            home = (int(rng.integers(amp, GRID - amp)), int(rng.integers(1, GRID - 1)))
            swept = [(home[0] + d, home[1]) for d in range(-amp, amp + 1)]
        else:
            home = (int(rng.integers(1, GRID - 1)), int(rng.integers(amp, GRID - amp)))
            swept = [(home[0], home[1] + d) for d in range(-amp, amp + 1)]
        if start in swept or goal in swept:
            continue
        for cell in swept:  # carve the patrol corridor
            walls[cell] = False
        tracks.append(HazardTrack(home, axis, amp))
    if not tracks:
        return None
    occupied = {start, goal} | {
        (r, c) for r in range(GRID) for c in range(GRID) if walls[r, c]
    }
    occupied |= {t.position(s) for t in tracks for s in range(4 * t.amplitude)}
    cues = tuple(_sample_empty(rng, occupied, 2))
    if not _bfs_reachable(~walls, start, goal):
        return None
    return Layout(walls, start, goal, cues, (), tuple(tracks))


_GENERATORS = {"runner": _gen_runner, "climber": _gen_climber, "dodger": _gen_dodger}


@functools.cache
def generate_layout(spec: LevelSpec) -> Layout:
    """Deterministic layout for (family, level_seed); reroll until solvable.
    Generated once per level, and the same object is returned after."""
    if spec.family not in _GENERATORS:
        raise ConfigError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    rng = _level_rng(spec)
    for _ in range(500):
        layout = _GENERATORS[spec.family](rng)
        if layout is not None:
            return layout
    raise ConfigError(f"could not generate a solvable {spec.family} level for seed {spec.level_seed}")


class EnvInstance:
    """One episodic gridworld level. No runtime randomness."""

    def __init__(self, spec: LevelSpec, max_ep_length: int = 200):
        self.spec = spec
        self.max_ep_length = max_ep_length
        self.layout = generate_layout(spec)
        self.agent = self.layout.start
        self.episode_steps = 0
        self.done = False
        self.remaining_cues = set(self.layout.cues)

    def _hazard_cells(self) -> set:
        cells = set(self.layout.static_hazards)
        for t in self.layout.tracks:
            cells.add(t.position(self.episode_steps))
        return cells

    def observation(self) -> np.ndarray:
        obs = np.zeros((N_CHANNELS, GRID, GRID))
        obs[CH_AGENT][self.agent] = 1.0
        obs[CH_GOAL][self.layout.goal] = 1.0
        for cell in self._hazard_cells():
            obs[CH_HAZARD][cell] = 1.0
        obs[CH_WALL][self.layout.walls] = 1.0
        for cell in self.remaining_cues:
            obs[CH_CUE][cell] = 1.0
        return obs.ravel()

    def step(self, action: int) -> StepResult:
        """Apply one action; ``observation()`` builds the state it leads to. A
        death scores 0: a runner or dodger agent stands on the hazard, and a
        climber, whose move checks the hazards it passes, stays put."""
        if self.done:
            raise ContractError("step() called on a finished episode")
        if not 0 <= action < N_ACTIONS:
            raise ContractError(f"action {action} outside 0..{N_ACTIONS - 1}")
        family, walls = self.spec.family, self.layout.walls
        r, c = self.agent
        died = False
        if family == "climber":
            nxt = _climber_move(self.layout, (r, c), action, set(self.layout.static_hazards))
            died = nxt is None
            self.agent = nxt or self.agent
        elif action in MOVES:
            dr, dc = MOVES[action]
            nr, nc = r + dr, c + dc
            if 0 <= nr < GRID and 0 <= nc < GRID and not walls[nr, nc]:
                self.agent = (nr, nc)
        elif action == 4 and family == "runner":
            # dash: two cells right, blocked cell by cell
            for _ in range(2):
                rr, cc = self.agent
                if cc + 1 < GRID and not walls[rr, cc + 1]:
                    self.agent = (rr, cc + 1)
        # dodger's special (4) and actions 5..7 everywhere: wait
        self.episode_steps += 1
        if died or self.agent in self._hazard_cells():
            self.done = True
            return StepResult(0.0, True)
        reward = 0.0
        if self.agent in self.remaining_cues:
            self.remaining_cues.discard(self.agent)
            reward += CUE_REWARD
        if self.agent == self.layout.goal:
            reward += COMPLETION_REWARD
            self.done = True
        if self.episode_steps >= self.max_ep_length:
            self.done = True
        return StepResult(reward, self.done)


class VecEnv:
    """N env slots, each cycling through a shared level rotation.

    Finished episodes auto-reset: a slot whose StepResult says done already
    holds the next episode, so ``observations()`` after a step gives that
    episode's initial observation (the standard bootstrapping convention).
    """

    def __init__(self, level_specs: Sequence[LevelSpec], num_envs: int,
                 max_ep_length: int = 200):
        if not level_specs:
            raise ConfigError("VecEnv needs at least one level")
        self.level_specs = list(level_specs)
        self.max_ep_length = max_ep_length
        self.num_envs = num_envs
        self._cursor = 0
        self.envs = [self._next_env() for _ in range(num_envs)]

    def _next_env(self) -> EnvInstance:
        spec = self.level_specs[self._cursor % len(self.level_specs)]
        self._cursor += 1
        return EnvInstance(spec, self.max_ep_length)

    def observations(self) -> np.ndarray:
        return np.stack([e.observation() for e in self.envs])

    def vec_step(self, actions: Sequence[int]) -> list[StepResult]:
        if len(actions) != self.num_envs:
            raise ContractError(
                f"got {len(actions)} actions for {self.num_envs} envs"
            )
        results = []
        for i, (env, action) in enumerate(zip(self.envs, actions)):
            res = env.step(int(action))
            if res.done:
                self.envs[i] = self._next_env()
            results.append(res)
        return results
