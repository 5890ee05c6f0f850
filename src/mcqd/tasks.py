"""Evaluation tasks: genome -> (fitness, observation matrix).

The main task is a planar two-legged walker on procedurally generated,
mildly uneven terrain.  It is not a rigid-body simulation; it is a cheap
surrogate with the same interface properties a learned-descriptor search
interacts with: stochastic terrain per episode, explicit episode averaging,
a fixed observation-matrix shape, a reward mixing progress, stability, a
torque cost and a fall penalty, and named channels covering every hardcoded
descriptor (displacement, body angle, joint angles, torques, contacts).

All dynamics are vectorized over the episodes of one evaluation and fully
deterministic given (genome, seed sequence).
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, StructuralError
from .descriptors import ChannelReduction, HardcodedSpec


@dataclass(frozen=True)
class TaskDefinition:
    """Static description of a task, shared by all evaluations of a run."""

    name: str
    genome_dim: int
    genome_bounds: tuple[float, float]
    n_obs_channels: int
    n_timepoints: int
    obs_averaging_window: int
    episodes_per_eval: int
    fitness_bounds: tuple[float, float]
    channel_names: tuple[str, ...]
    # the hand-designed FDs that hardcoded grids take, in order
    hardcoded_fds: tuple[HardcodedSpec, ...] = ()

    @property
    def episode_steps(self) -> int:
        return self.n_timepoints * self.obs_averaging_window


class Task:
    """``evaluate`` maps one genome to its episode-averaged fitness and
    (channels, timepoints) observation matrix; ``evaluate_many`` maps a batch
    to a fitness vector (n,) and an observation array (n, channels,
    timepoints)."""

    definition: TaskDefinition

    def evaluate(self, genome: np.ndarray,
                 seed_seq: np.random.SeedSequence) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def evaluate_many(self, genomes, seed_seqs) -> tuple[np.ndarray, np.ndarray]:
        """Batch evaluation; must give the same results as one-by-one calls."""
        results = [self.evaluate(g, ss) for g, ss in zip(genomes, seed_seqs)]
        return (np.array([fitness for fitness, _ in results], dtype=float),
                np.stack([obs for _, obs in results]).astype(float, copy=False))


class SurrogateWalkerTask(Task):
    """Planar segmented walker with torque-controlled hips and knees.

    The body is a point mass with an orientation angle; each leg is a
    two-joint chain whose foot can contact the heightfield.  Contact feet
    support the body on a stiff spring-damper and convert backward foot speed
    into forward traction, so locomotion requires coordinated joint motion.
    With zero torque the walker just settles onto its springs and stays put.

    The controller is a one-hidden-layer tanh MLP whose flattened weights are
    the genome (14 inputs, 8 hidden units, 4 torque outputs -> 156 genes).
    """

    DT = 0.02
    GRAVITY = 9.81
    BODY_MASS = 1.0
    BODY_INERTIA = 0.5
    THIGH_LEN = 0.5
    SHANK_LEN = 0.5
    TORQUE_MAX = 1.0
    JOINT_GAIN = 12.0
    JOINT_DAMPING = 1.5
    JOINT_LIMIT = 1.2
    GROUND_SPRING = 200.0
    GROUND_DAMPING = 10.0
    TRACTION = 1.4
    TRACTION_MAX = 3.0
    DRAG = 0.4
    HIP_REACTION = 0.8
    UPRIGHT_SPRING = 8.0
    ANGLE_DAMPING = 1.5
    FALL_ANGLE = 1.3
    FALL_CLEARANCE = 0.25
    ARENA_LENGTH = 30.0
    SEGMENT_LEN = 2.0

    PROGRESS_REWARD = 2.5
    STABILITY_REWARD = 0.02
    TORQUE_COST = 0.008
    FALL_PENALTY = 100.0

    N_HIDDEN = 8
    N_INPUTS = 14
    N_TORQUES = 4

    CHANNELS = (
        "displacement", "body_angle",
        "hip1", "knee1", "hip2", "knee2",
        "torque_hip1", "torque_knee1", "torque_hip2", "torque_knee2",
        "torque_total", "contact1", "contact2", "airborne",
    )

    def __init__(self, episode_steps=300, obs_window=30, episodes_per_eval=5,
                 terrain_roughness=0.15):
        if episode_steps % obs_window != 0:
            raise ConfigurationError(
                f"episode_steps {episode_steps} not divisible by window {obs_window}"
            )
        self.terrain_roughness = float(terrain_roughness)
        genome_dim = (self.N_INPUTS + 1) * self.N_HIDDEN + (self.N_HIDDEN + 1) * self.N_TORQUES
        # the usual hand-designed characterization: how far and how upright
        # the walker went, how hard it worked and how much it jumped, and the
        # two legs' joint postures
        angle = (-self.FALL_ANGLE, self.FALL_ANGLE)
        joint = (-self.JOINT_LIMIT, self.JOINT_LIMIT)
        hardcoded_fds = tuple(HardcodedSpec(pair) for pair in (
            (ChannelReduction("displacement", "final", (-5.0, 25.0)),
             ChannelReduction("body_angle", "mean", angle)),
            (ChannelReduction("torque_total", "mean_abs", (0.0, 4.0)),
             ChannelReduction("airborne", "mean", (0.0, 1.0))),
            (ChannelReduction("hip1", "mean", joint),
             ChannelReduction("knee1", "mean", joint)),
            (ChannelReduction("hip2", "mean", joint),
             ChannelReduction("knee2", "mean", joint)),
        ))
        self.definition = TaskDefinition(
            name="surrogate_walker",
            genome_dim=genome_dim,
            genome_bounds=(-1.0, 1.0),
            n_obs_channels=len(self.CHANNELS),
            n_timepoints=episode_steps // obs_window,
            obs_averaging_window=obs_window,
            episodes_per_eval=episodes_per_eval,
            fitness_bounds=(-120.0, 40.0),
            channel_names=self.CHANNELS,
            hardcoded_fds=hardcoded_fds,
        )

    def _unpack_controllers(self, genomes):
        """(batch, genome_dim) -> per-controller weight stacks."""
        n_in, n_h, n_out = self.N_INPUTS, self.N_HIDDEN, self.N_TORQUES
        b = genomes.shape[0]
        i = 0
        w1 = genomes[:, i:i + n_in * n_h].reshape(b, n_h, n_in); i += n_in * n_h
        b1 = genomes[:, i:i + n_h]; i += n_h
        w2 = genomes[:, i:i + n_h * n_out].reshape(b, n_out, n_h); i += n_h * n_out
        b2 = genomes[:, i:i + n_out]
        return w1, b1, w2, b2

    def _make_terrain(self, rng, n_episodes):
        """Per-episode piecewise-linear heightfields with bounded slope.

        The first knots (covering the start of the arena) are flat so every
        episode begins from the same stable stance.
        """
        x0 = -2.0 * self.SEGMENT_LEN
        n_knots = int((self.ARENA_LENGTH + 20.0) / self.SEGMENT_LEN) + 4
        knots_x = x0 + self.SEGMENT_LEN * np.arange(n_knots)
        steps = rng.uniform(-self.terrain_roughness, self.terrain_roughness,
                            size=(n_episodes, n_knots))
        steps[:, knots_x <= 0.0] = 0.0  # the stance at the origin starts level
        heights = np.clip(np.cumsum(steps, axis=1), -1.0, 1.0)
        return knots_x, heights

    @staticmethod
    def _terrain_height(knots_x, heights, rows, x):
        """Heightfield lookup at x, elementwise over (batch, episodes): ``heights``
        is the flattened terrain, ``rows`` each heightfield's offset in it."""
        seg = (x - knots_x[0]) / (knots_x[1] - knots_x[0])
        idx = np.minimum(np.maximum(seg.astype(int), 0), len(knots_x) - 2)
        frac = np.minimum(np.maximum(seg - idx, 0.0), 1.0)
        at = rows + idx
        return heights[at] * (1.0 - frac) + heights[at + 1] * frac

    @staticmethod
    def _abs_total(torque):
        """``np.abs(torque).sum(axis=-1)`` over the four joints, bit for bit:
        numpy reduces a 4-long last axis left to right, and the explicit adds
        skip the reduction's per-call overhead."""
        a = np.abs(torque)
        return a[..., 0] + a[..., 1] + a[..., 2] + a[..., 3]

    def evaluate(self, genome, seed_seq):
        fitness, observations = self.evaluate_many([genome], [seed_seq])
        return float(fitness[0]), observations[0]

    def evaluate_many(self, genomes, seed_seqs):
        """Run a batch of evaluations in lockstep.

        All dynamics are elementwise over (batch, episode) except the
        controller products, which are one small matmul per batch entry, so
        the results are bit-identical however the batch is sliced (including
        one-by-one evaluation) and at one or two BLAS threads.
        """
        d = self.definition
        genomes = np.asarray(genomes, dtype=float)
        if genomes.ndim != 2 or genomes.shape[1] != d.genome_dim:
            raise StructuralError(f"genomes must be (batch, {d.genome_dim})")
        b = genomes.shape[0]
        e = d.episodes_per_eval
        w1, b1, w2, b2 = self._unpack_controllers(genomes)
        # contiguous (batch, in, out) stacks for the per-step matmuls, which
        # ran about 3x slower over the transposed views
        w1t = np.ascontiguousarray(w1.transpose(0, 2, 1))
        w2t = np.ascontiguousarray(w2.transpose(0, 2, 1))

        terrains = []
        knots_x = None
        for ss in seed_seqs:
            rng = np.random.Generator(np.random.PCG64(ss))
            knots_x, heights = self._make_terrain(rng, e)
            terrains.append(heights)
        terrain = np.stack(terrains).ravel()  # (batch, episodes, knots) flattened
        rows = len(knots_x) * np.arange(b * e).reshape(b, e)

        # initial split stance, identical for every episode
        leg_drop = self.THIGH_LEN * math.cos(0.3) + self.SHANK_LEN * math.cos(0.3)
        x = np.zeros((b, e))
        y = np.full((b, e), leg_drop - 0.02)
        vx = np.zeros((b, e))
        vy = np.zeros((b, e))
        theta = np.zeros((b, e))
        omega = np.zeros((b, e))
        q = np.tile([0.3, 0.0, -0.3, 0.0], (b, e, 1))  # hip1, knee1, hip2, knee2
        qd = np.zeros((b, e, 4))
        alive = np.ones((b, e), dtype=bool)
        reward = np.zeros((b, e))
        contact = np.zeros((b, e, 2), dtype=bool)

        # each step is written into the current window's buffer, which is
        # averaged into ``windows`` as soon as it is full
        window = d.obs_averaging_window
        step_buf = np.empty((window, d.n_obs_channels, b, e))
        windows = np.empty((d.n_timepoints, d.n_obs_channels, b, e))
        inputs = np.empty((b, e, self.N_INPUTS))

        for t in range(d.episode_steps):
            inputs[..., 0] = theta
            inputs[..., 1] = 0.3 * omega
            inputs[..., 2] = 0.3 * vx
            inputs[..., 3] = 0.3 * vy
            inputs[..., 4:8] = q
            inputs[..., 8:12] = 0.1 * qd
            inputs[..., 12:14] = contact
            hidden = np.tanh(np.matmul(inputs, w1t) + b1[:, np.newaxis, :])
            torque = self.TORQUE_MAX * np.tanh(
                np.matmul(hidden, w2t) + b2[:, np.newaxis, :])
            torque = torque * alive[..., np.newaxis]

            qdd = self.JOINT_GAIN * torque - self.JOINT_DAMPING * qd
            qd_new = qd + self.DT * qdd
            q_unclipped = q + self.DT * qd_new
            # minimum/maximum give np.clip's values without its per-call overhead
            q_new = np.minimum(np.maximum(q_unclipped, -self.JOINT_LIMIT),
                               self.JOINT_LIMIT)
            qd_new = np.where(q_new != q_unclipped, 0.0, qd_new)

            # forward kinematics and ground interaction per leg
            force_x = np.zeros((b, e))
            force_y = np.zeros((b, e))
            new_contact = np.zeros((b, e, 2), dtype=bool)
            for leg in range(2):
                hip, knee = q_new[..., 2 * leg], q_new[..., 2 * leg + 1]
                hip_d, knee_d = qd_new[..., 2 * leg], qd_new[..., 2 * leg + 1]
                a1 = theta + hip
                a2 = a1 + knee
                cos1, cos2 = np.cos(a1), np.cos(a2)
                foot_x = x + self.THIGH_LEN * np.sin(a1) + self.SHANK_LEN * np.sin(a2)
                foot_y = y - self.THIGH_LEN * cos1 - self.SHANK_LEN * cos2
                ground = self._terrain_height(knots_x, terrain, rows, foot_x)
                pen = ground - foot_y
                touching = pen > 0.0
                new_contact[..., leg] = touching
                support = np.maximum(
                    self.GROUND_SPRING * pen - self.GROUND_DAMPING * vy, 0.0)
                force_y += np.where(touching, support, 0.0)
                foot_vx = (self.THIGH_LEN * cos1 * (omega + hip_d)
                           + self.SHANK_LEN * cos2 * (omega + hip_d + knee_d))
                traction = np.minimum(np.maximum(-self.TRACTION * foot_vx,
                                                 -self.TRACTION_MAX), self.TRACTION_MAX)
                force_x += np.where(touching, traction, 0.0)

            any_contact = new_contact[..., 0] | new_contact[..., 1]
            ax = (force_x - self.DRAG * vx) / self.BODY_MASS
            ay = force_y / self.BODY_MASS - self.GRAVITY
            vx_new = vx + self.DT * ax
            vy_new = vy + self.DT * ay
            x_new = x + self.DT * vx_new
            y_new = y + self.DT * vy_new

            body_torque = (-self.HIP_REACTION * (torque[..., 0] + torque[..., 2])
                           - self.UPRIGHT_SPRING * theta * any_contact
                           - self.ANGLE_DAMPING * omega)
            omega_new = omega + self.DT * body_torque / self.BODY_INERTIA
            theta_new = theta + self.DT * omega_new

            # frozen episodes keep their final state
            live = alive
            live4 = alive[..., np.newaxis]
            x = np.where(live, x_new, x)
            y = np.where(live, y_new, y)
            vx = np.where(live, vx_new, vx)
            vy = np.where(live, vy_new, vy)
            theta = np.where(live, theta_new, theta)
            omega = np.where(live, omega_new, omega)
            q = np.where(live4, q_new, q)
            qd = np.where(live4, qd_new, qd)
            contact = np.where(live[..., np.newaxis], new_contact, contact)

            torque_total = self._abs_total(torque)
            stability = self.STABILITY_REWARD * (1.0 - np.abs(theta) / self.FALL_ANGLE)
            reward += np.where(alive,
                               self.PROGRESS_REWARD * self.DT * vx + stability
                               - self.TORQUE_COST * torque_total,
                               0.0)

            clearance = y - self._terrain_height(knots_x, terrain, rows, x)
            fell = alive & ((np.abs(theta) > self.FALL_ANGLE)
                            | (clearance < self.FALL_CLEARANCE))
            reward -= self.FALL_PENALTY * fell
            alive &= ~fell

            airborne = alive & ~(contact[..., 0] | contact[..., 1])
            k, w = divmod(t, window)
            step = step_buf[w]
            step[0] = x
            step[1] = theta
            step[2] = q[..., 0]
            step[3] = q[..., 1]
            step[4] = q[..., 2]
            step[5] = q[..., 3]
            step[6] = torque[..., 0]
            step[7] = torque[..., 1]
            step[8] = torque[..., 2]
            step[9] = torque[..., 3]
            step[10] = torque_total
            step[11] = contact[..., 0]
            step[12] = contact[..., 1]
            step[13] = airborne
            if w == window - 1:
                step_buf.mean(axis=0, out=windows[k])

        # (timepoints, channels, batch, episodes) -> per-eval episode means
        observations = windows.mean(axis=3)
        fitness = reward.mean(axis=1)
        return fitness, np.ascontiguousarray(observations.transpose(2, 1, 0))


class RastriginToyTask(Task):
    """Two-gene analytic fixture: fitness is the negated Rastrigin value.

    Observation channels are (g1, g2, g1+g2, g1-g2) held constant over the
    timepoints, so descriptor and metric code can be checked against
    hand-computed correlation structure.
    """

    CHANNELS = ("g1", "g2", "g_sum", "g_diff")

    def __init__(self, n_timepoints=10):
        lim = 5.12
        self.definition = TaskDefinition(
            name="rastrigin_toy",
            genome_dim=2,
            genome_bounds=(-lim, lim),
            n_obs_channels=4,
            n_timepoints=n_timepoints,
            obs_averaging_window=1,
            episodes_per_eval=1,
            fitness_bounds=(-85.0, 0.0),
            channel_names=self.CHANNELS,
        )

    def evaluate(self, genome, seed_seq):
        g = np.asarray(genome, dtype=float)
        if g.shape != (2,):
            raise StructuralError("toy task expects a 2-gene genome")
        value = 20.0 + np.sum(g ** 2 - 10.0 * np.cos(2.0 * np.pi * g))
        channels = np.array([g[0], g[1], g[0] + g[1], g[0] - g[1]])
        obs = np.repeat(channels[:, np.newaxis], self.definition.n_timepoints, axis=1)
        return float(-value), obs


_TASKS = {"surrogate_walker": SurrogateWalkerTask, "rastrigin_toy": RastriginToyTask}

# Parameters that size arrays or divide step counts.
_COUNT_PARAMS = ("episode_steps", "obs_window", "episodes_per_eval", "n_timepoints")


def make_task(name: str, params: dict | None = None) -> Task:
    """Instantiate a task by registry name with its namespaced parameters.

    An unknown parameter, or a count parameter that is not a positive
    integer, is a ``ConfigurationError`` naming the task and the key.
    """
    params = dict(params or {})
    if name not in _TASKS:
        raise ConfigurationError(f"unknown task {name!r}")
    accepted = inspect.signature(_TASKS[name]).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"task {name!r} has no parameter(s) {unknown}; it takes {sorted(accepted)}")
    for key in _COUNT_PARAMS:
        value = params.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigurationError(
                f"task {name!r} parameter {key!r} must be a positive integer, "
                f"got {value!r}")
    return _TASKS[name](**params)
