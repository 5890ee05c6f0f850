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
from .descriptors import ChannelReduction


@dataclass(frozen=True)
class TaskDefinition:
    """Static description of a task, shared by all evaluations of a run."""

    name: str
    genome_dim: int
    genome_bounds: tuple[float, float]
    n_timepoints: int
    fitness_bounds: tuple[float, float]
    channel_names: tuple[str, ...]
    # hardcoded grids take these FDs in order, one reduction per dimension
    hardcoded_fds: tuple[tuple[ChannelReduction, ...], ...] = ()

    @property
    def n_obs_channels(self) -> int:
        return len(self.channel_names)


class Task:
    """The one task contract: ``evaluate_many`` maps (n, genome_dim) genomes
    and their n episode seed sequences to the episode-averaged fitness
    vector (n,) and observation array (n, channels, timepoints).  One genome
    is a one-row batch."""

    definition: TaskDefinition

    def evaluate_many(self, genomes, seed_seqs) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class SurrogateWalkerTask(Task):
    """Planar segmented walker with torque-controlled hips and knees.

    The body is a unit point mass with an orientation angle; each leg is a
    two-joint chain whose foot can contact the heightfield.  Contact feet
    support the body on a stiff spring-damper and convert backward foot speed
    into forward traction, so locomotion requires coordinated joint motion.
    With zero torque the walker just settles onto its springs and stays put.

    The controller is a one-hidden-layer tanh MLP whose flattened weights are
    the genome (14 inputs, 8 hidden units, 4 torque outputs -> 156 genes).
    Its output tanh bounds each joint torque to [-1, 1].
    """

    DT = 0.02
    GRAVITY = 9.81
    BODY_INERTIA = 0.5
    THIGH_LEN = 0.5
    SHANK_LEN = 0.5
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
    # rows evaluated in one lockstep pass.  Its per-step state, scratch and
    # terrain arrays trace about 1.9 kB per row and episode whatever the
    # window length: 9.4 MB for 1000 rows of 5 episodes
    CHUNK = 1000
    # the controller inputs' scales, over state planes 2: (theta, omega, vx,
    # vy, the joint angles, the joint speeds, the contacts)
    _INPUT_SCALE = np.array([1.0, 0.3, 0.3, 0.3, 1.0, 1.0, 1.0, 1.0,
                             0.1, 0.1, 0.1, 0.1, 1.0, 1.0])[:, np.newaxis, np.newaxis]
    # scales (sin, cos) x (thigh, shank) to each segment's (dx, dy) offset
    _SEGMENT_LENGTHS = np.array([[THIGH_LEN, SHANK_LEN],
                                 [-THIGH_LEN, -SHANK_LEN]]).reshape(2, 2, 1, 1, 1)

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
        self.episode_steps = episode_steps
        self.obs_window = obs_window
        self.episodes_per_eval = episodes_per_eval
        self.terrain_roughness = float(terrain_roughness)
        genome_dim = (self.N_INPUTS + 1) * self.N_HIDDEN + (self.N_HIDDEN + 1) * self.N_TORQUES
        # the usual hand-designed characterization: how far and how upright
        # the walker went, how hard it worked and how much it jumped, and the
        # two legs' joint postures
        angle = (-self.FALL_ANGLE, self.FALL_ANGLE)
        joint = (-self.JOINT_LIMIT, self.JOINT_LIMIT)
        hardcoded_fds = (
            (ChannelReduction("displacement", "final", (-5.0, 25.0)),
             ChannelReduction("body_angle", "mean", angle)),
            (ChannelReduction("torque_total", "mean_abs", (0.0, 4.0)),
             ChannelReduction("airborne", "mean", (0.0, 1.0))),
            (ChannelReduction("hip1", "mean", joint),
             ChannelReduction("knee1", "mean", joint)),
            (ChannelReduction("hip2", "mean", joint),
             ChannelReduction("knee2", "mean", joint)),
        )
        self.definition = TaskDefinition(
            name="surrogate_walker",
            genome_dim=genome_dim,
            genome_bounds=(-1.0, 1.0),
            n_timepoints=episode_steps // obs_window,
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

    def _make_terrain(self, seed_seqs, n_episodes):
        """Per-episode piecewise-linear heightfields with bounded slope; each
        evaluation draws its own from its seed sequence.  Returns the knots'
        x and their heights, (batch, episodes, knots) flattened, plus one
        spare knot that keeps the view shifted by one knot in bounds.

        The first knots (covering the start of the arena) are flat so every
        episode begins from the same stable stance.
        """
        x0 = -2.0 * self.SEGMENT_LEN
        n_knots = int((self.ARENA_LENGTH + 20.0) / self.SEGMENT_LEN) + 4
        knots_x = x0 + self.SEGMENT_LEN * np.arange(n_knots)
        r = self.terrain_roughness
        steps = np.stack([
            np.random.Generator(np.random.PCG64(ss)).uniform(-r, r, size=(n_episodes, n_knots))
            for ss in seed_seqs])
        steps[..., knots_x <= 0.0] = 0.0  # the stance at the origin starts level
        heights = np.zeros(steps.size + 1)
        np.cumsum(steps, axis=-1, out=heights[:-1].reshape(steps.shape))
        return knots_x, np.clip(heights, -1.0, 1.0, out=heights)

    @staticmethod
    def _terrain_height(knots_x, knot_heights, rows, x):
        """Heightfield lookup at x, elementwise over (..., batch, episodes).

        ``knot_heights`` is a pair: every heightfield's knot heights flattened,
        and the same shifted left by one knot; ``rows`` is each heightfield's
        offset in them.
        """
        seg = (x - knots_x[0]) / (knots_x[1] - knots_x[0])
        idx = seg.astype(int)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, len(knots_x) - 2, out=idx)
        frac = seg - idx
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        idx += rows
        left, right = knot_heights
        return left.take(idx) * (1.0 - frac) + right.take(idx) * frac

    def evaluate_many(self, genomes, seed_seqs):
        """Run a batch of evaluations in lockstep, ``CHUNK`` rows at a time.

        All dynamics are elementwise over (batch, episode) except the
        controller products, which are one small matmul per batch entry, so
        the results are bit-identical however the batch is sliced (including
        one-by-one evaluation) and at one or two BLAS threads.  That is what
        lets a large batch run in chunks, which bounds the memory of the
        per-step arrays; each chunk writes its observations straight into
        its rows of the result.
        """
        d = self.definition
        genomes = np.asarray(genomes, dtype=float)
        if genomes.ndim != 2 or genomes.shape[1] != d.genome_dim:
            raise StructuralError(f"genomes must be (batch, {d.genome_dim})")
        seed_seqs = list(seed_seqs)
        n = genomes.shape[0]
        fitness = np.empty(n)
        observations = np.empty((n, d.n_obs_channels, d.n_timepoints))
        for start in range(0, n, self.CHUNK):
            part = slice(start, start + self.CHUNK)
            fitness[part] = self._lockstep(genomes[part], seed_seqs[part],
                                           observations[part])
        return fitness, observations

    def _lockstep(self, genomes, seed_seqs, obs_out):
        """One lockstep pass over a chunk: returns the per-eval episode mean
        of the fitness, (b,), and writes that of the observations into
        ``obs_out``, (b, channels, timepoints)."""
        d = self.definition
        b = genomes.shape[0]
        e = self.episodes_per_eval
        w1, b1, w2, b2 = self._unpack_controllers(genomes)
        # contiguous (batch, in, out) stacks for the per-step matmuls, which
        # ran about 3x slower over the transposed views
        w1t = np.ascontiguousarray(w1.transpose(0, 2, 1))
        w2t = np.ascontiguousarray(w2.transpose(0, 2, 1))
        # the biases repeated over the episodes: a broadcast add costs 4x more
        b1 = np.repeat(b1[:, np.newaxis, :], e, axis=1)
        b2 = np.repeat(b2[:, np.newaxis, :], e, axis=1)

        knots_x, heights = self._make_terrain(seed_seqs, e)
        knot_heights = heights[:-1], heights[1:]
        rows = len(knots_x) * np.arange(b * e).reshape(b, e)
        feet_rows = np.stack([rows, rows])  # a broadcast add costs 2x more

        # The state is one block of (batch, episode) planes, updated in place;
        # each step computes the next state into ``new``.  Planes 2: are the
        # controller's inputs, in input order, before their scaling.
        state = np.zeros((16, b, e))
        pos, vel = state[0:2], state[4:6]
        x, y, theta, omega, vx, vy = state[:6]
        q, qd, contact = state[6:10], state[10:14], state[14:16]
        new = np.empty_like(state)
        new_pos, new_theta, new_omega, new_vel = new[0:2], new[2], new[3], new[4:6]
        new_q, new_qd = new[6:10], new[10:14]
        hip, knee = new_q[0::2], new_q[1::2]
        hip_d, knee_d = new_qd[0::2], new_qd[1::2]
        # initial split stance, identical for every episode
        leg_drop = self.THIGH_LEN * math.cos(0.3) + self.SHANK_LEN * math.cos(0.3)
        y[...] = leg_drop - 0.02
        q[...] = np.array([0.3, 0.0, -0.3, 0.0])[:, np.newaxis, np.newaxis]
        alive = np.ones((b, e), dtype=bool)
        reward = np.zeros((b, e))

        # each step's observation is added into its window's running sum;
        # at the window's end the sum is divided by the window length and
        # then averaged over the episodes
        window = self.obs_window
        step = np.empty((d.n_obs_channels, b, e))
        window_mean = np.empty((d.n_obs_channels, b, e))
        input_planes = np.empty((self.N_INPUTS, b, e))
        hidden = np.empty((b, e, self.N_HIDDEN))
        out = np.empty((b, e, self.N_TORQUES))
        angles = np.empty((2, 2, b, e))  # (thigh, shank) x leg
        # (dx, dy) x (thigh, shank) x leg: each segment's offset from its
        # upper joint, L sin(angle) and -L cos(angle)
        offsets = np.empty((2, 2, 2, b, e))
        forces = np.empty((2, 2, b, e))  # (traction, support) x leg
        traction, support = forces

        for t in range(self.episode_steps):
            k, w = divmod(t, window)
            np.multiply(state[2:], self._INPUT_SCALE, out=input_planes)
            # the matmul's bits depend on its operands' layout: it reads a
            # contiguous (b, e, in) array
            inputs = np.ascontiguousarray(input_planes.transpose(1, 2, 0))
            np.matmul(inputs, w1t, out=hidden)
            hidden += b1
            np.tanh(hidden, out=hidden)
            np.matmul(hidden, w2t, out=out)
            out += b2
            np.tanh(out, out=out)
            torque = step[6:10]  # computed where it is recorded
            np.multiply(out.transpose(2, 0, 1), alive, out=torque)

            qdd = self.JOINT_GAIN * torque - self.JOINT_DAMPING * qd
            np.add(qd, self.DT * qdd, out=new_qd)
            q_unclipped = q + self.DT * new_qd
            # minimum/maximum give np.clip's values without its per-call overhead
            np.maximum(q_unclipped, -self.JOINT_LIMIT, out=new_q)
            np.minimum(new_q, self.JOINT_LIMIT, out=new_q)
            np.copyto(new_qd, 0.0, where=new_q != q_unclipped)

            # forward kinematics and ground interaction, both legs at once;
            # adding a negated term is subtracting it, bit for bit
            np.add(theta, hip, out=angles[0])
            np.add(angles[0], knee, out=angles[1])
            np.sin(angles, out=offsets[0])
            np.cos(angles, out=offsets[1])
            offsets *= self._SEGMENT_LENGTHS
            feet = pos[:, np.newaxis] + offsets[:, 0] + offsets[:, 1]
            pen = self._terrain_height(knots_x, knot_heights, feet_rows, feet[0]) - feet[1]
            touching = pen > 0.0
            new[14:16] = touching
            hip_speed = omega + hip_d
            backward_speed = offsets[1, 0] * hip_speed + offsets[1, 1] * (hip_speed + knee_d)
            np.multiply(self.TRACTION, backward_speed, out=traction)
            np.maximum(traction, -self.TRACTION_MAX, out=traction)
            np.minimum(traction, self.TRACTION_MAX, out=traction)
            np.maximum(self.GROUND_SPRING * pen - self.GROUND_DAMPING * vy, 0.0,
                       out=support)
            # each force summed from zero, leg 1 then leg 2, into (x, y)
            # forces that become the unit mass's accelerations in place
            leg_forces = np.where(touching, forces, 0.0)
            accel = (0.0 + leg_forces[:, 0]) + leg_forces[:, 1]
            np.subtract(accel[0], self.DRAG * vx, out=accel[0])
            accel[1] -= self.GRAVITY
            np.add(vel, self.DT * accel, out=new_vel)
            np.add(pos, self.DT * new_vel, out=new_pos)

            either_foot = np.maximum(new[14], new[15])  # 1.0 or 0.0
            body_torque = (-self.HIP_REACTION * (torque[0] + torque[2])
                           - self.UPRIGHT_SPRING * theta * either_foot
                           - self.ANGLE_DAMPING * omega)
            np.add(omega, self.DT * body_torque / self.BODY_INERTIA, out=new_omega)
            np.add(theta, self.DT * new_omega, out=new_theta)
            # frozen episodes keep their final state
            np.copyto(state, new, where=alive)

            # the joints' planes added in order, from the first
            torque_total = np.abs(torque).sum(axis=0)
            abs_theta = np.abs(theta)
            stability = self.STABILITY_REWARD * (1.0 - abs_theta / self.FALL_ANGLE)
            # a frozen episode's reward is left as it is: reward is never -0.0,
            # so that is the same as adding 0.0 to it
            np.add(reward,
                   self.PROGRESS_REWARD * self.DT * vx + stability
                   - self.TORQUE_COST * torque_total,
                   out=reward, where=alive)

            clearance = y - self._terrain_height(knots_x, knot_heights, rows, x)
            fell = alive & ((abs_theta > self.FALL_ANGLE)
                            | (clearance < self.FALL_CLEARANCE))
            np.subtract(reward, self.FALL_PENALTY, out=reward, where=fell)
            alive ^= fell  # fell only where alive

            step[0] = x
            step[1] = theta
            step[2:6] = q
            step[10] = torque_total
            step[11:13] = contact
            # airborne: alive with no foot down
            np.greater(alive, np.logical_or(contact[0], contact[1]), out=step[13])
            # the IEEE operations of ``mean(axis=0)`` over the window's
            # steps, in its order: a sum from 0.0 (which, unlike copying the
            # first step in, turns -0.0 into 0.0), then one division
            if w == 0:
                window_mean.fill(0.0)
            window_mean += step
            if w == window - 1:
                window_mean /= window
                window_mean.mean(axis=2, out=obs_out[:, :, k].T)

        return reward.mean(axis=1)


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
            n_timepoints=n_timepoints,
            fitness_bounds=(-85.0, 0.0),
            channel_names=self.CHANNELS,
        )

    def evaluate_many(self, genomes, seed_seqs):
        g = np.asarray(genomes, dtype=float)
        if g.ndim != 2 or g.shape[1] != 2:
            raise StructuralError("toy task expects (batch, 2) genomes")
        value = 20.0 + np.sum(g ** 2 - 10.0 * np.cos(2.0 * np.pi * g), axis=1)
        channels = np.stack([g[:, 0], g[:, 1], g[:, 0] + g[:, 1], g[:, 0] - g[:, 1]],
                            axis=1)
        obs = np.repeat(channels[:, :, np.newaxis], self.definition.n_timepoints, axis=2)
        return -value, obs


_TASKS = {"surrogate_walker": SurrogateWalkerTask, "rastrigin_toy": RastriginToyTask}

# Parameters that size arrays or divide step counts.
_COUNT_PARAMS = ("episode_steps", "obs_window", "episodes_per_eval", "n_timepoints")
# Parameters that scale a random draw.
_SCALE_PARAMS = ("terrain_roughness",)


def make_task(name: str, params: dict | None = None) -> Task:
    """Instantiate a task by registry name with its namespaced parameters.

    An unknown parameter, a count parameter that is not a positive integer,
    or a scale parameter that is not a finite number >= 0 is a
    ``ConfigurationError`` naming the task and the key.
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
    for key in _SCALE_PARAMS:
        value = params.get(key, 0.0)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 <= value < math.inf):
            raise ConfigurationError(
                f"task {name!r} parameter {key!r} must be a finite number >= 0, "
                f"got {value!r}")
    return _TASKS[name](**params)
