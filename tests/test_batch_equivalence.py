"""Batched execution must be numerically identical to the serial reference.

The whole point of the batch engine is speed *without* changing any
paper-reproduction number: same seeds in, bit-identical trajectories, plans,
labels and experiment results out.  These tests lock that contract in at
every layer — thermal network, HVAC plant, environment, RS planner,
Monte-Carlo distillation and the runner backends.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.agents.random_shooting import RandomShootingOptimizer
from repro.agents.rule_based import RuleBasedAgent
from repro.core.decision_dataset import DecisionDatasetGenerator
from repro.core.sampling import AugmentedHistoricalSampler
from repro.env.dataset import collect_historical_data
from repro.env.hvac_env import make_environment
from repro.env.reward import compute_reward, compute_rewards
from repro.env.spaces import SetpointSpace
from repro.env.vector_env import BatchedHVACEnvironment
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.nn.dynamics import ThermalDynamicsModel
from repro.utils.config import ActionSpaceConfig, ComfortConfig, RewardConfig
from repro.utils.rng import spawn_rngs


# --------------------------------------------------------------------- plant
def test_thermal_step_batch_matches_scalar_rows():
    from repro.buildings.building import make_five_zone_building
    from repro.buildings.thermal import ThermalState, ZoneGains

    network = make_five_zone_building().network
    rng = np.random.default_rng(0)
    temps = rng.uniform(15.0, 28.0, size=(8, len(network.zones)))
    outdoor = rng.uniform(-10.0, 35.0, size=8)
    wind = rng.uniform(0.0, 12.0, size=8)
    gains = rng.uniform(-2000.0, 4000.0, size=(8, len(network.zones)))

    batched = network.step_batch(temps, outdoor, wind, gains, duration_seconds=900.0)
    for row in range(8):
        scalar = network.step(
            ThermalState(temps[row].copy()),
            outdoor_temperature_c=float(outdoor[row]),
            wind_speed_ms=float(wind[row]),
            gains={
                name: ZoneGains(hvac_thermal_w=float(gains[row, i]))
                for i, name in enumerate(network.zone_names)
            },
            duration_seconds=900.0,
        )
        assert np.array_equal(batched[row], scalar.temperatures)


def test_batched_hvac_plant_matches_scalar_units():
    from repro.buildings.building import make_five_zone_building
    from repro.buildings.hvac import BatchedHVACPlant

    buildings = [make_five_zone_building() for _ in range(4)]
    plant = BatchedHVACPlant(
        [b.hvac_units for b in buildings], buildings[0].network.zone_names
    )
    rng = np.random.default_rng(1)
    temps = rng.uniform(14.0, 30.0, size=(4, 5))
    heating = np.array([18.0, 20.0, 21.0, 15.0])
    cooling = np.array([24.0, 23.5, 26.0, 30.0])
    occupied = np.array([True, False, True, False])

    result = plant.evaluate(temps, heating, cooling, occupied)
    for b, building in enumerate(buildings):
        for z, name in enumerate(building.network.zone_names):
            scalar = building.hvac_units[name].evaluate(
                zone_temperature_c=float(temps[b, z]),
                heating_setpoint_c=float(heating[b]),
                cooling_setpoint_c=float(cooling[b]),
                occupied=bool(occupied[b]),
            )
            assert result.thermal_power_w[b, z] == scalar.thermal_power_w
            assert result.electric_power_w[b, z] == scalar.electric_power_w
            assert result.heating_mask[b, z] == (scalar.mode == "heating")
            assert result.cooling_mask[b, z] == (scalar.mode == "cooling")


# --------------------------------------------------------------- environment
def _assert_batched_env_matches_serial(draw_actions):
    """Step serial and batched copies with ``draw_actions(rng, B, n) -> (batch, serial)``."""
    spec = get_scenario("tucson/summer", days=1)
    seeds = [3, 14, 15]
    serial_envs = [spec.build_environment(seed=s) for s in seeds]
    batched = BatchedHVACEnvironment([spec.build_environment(seed=s) for s in seeds])

    obs_batch, _ = batched.reset()
    obs_serial = np.stack([env.reset()[0] for env in serial_envs])
    assert np.array_equal(obs_batch, obs_serial)

    rng = np.random.default_rng(2)
    for _ in range(serial_envs[0].num_steps):
        actions, serial_actions = draw_actions(rng, len(seeds), serial_envs[0].action_space.n)
        batch_result = batched.step(actions)
        for i, env in enumerate(serial_envs):
            serial_result = env.step(serial_actions[i])
            assert np.array_equal(serial_result.observation, batch_result.observations[i])
            assert serial_result.reward == batch_result.rewards[i]
            for key, value in serial_result.info.items():
                batch_value = batch_result.info[key]
                if not np.isscalar(batch_value):
                    batch_value = batch_value[i]
                assert float(value) == float(batch_value), key
        assert batch_result.truncated == serial_result.truncated


def test_batched_environment_matches_serial_episodes():
    def draw(rng, batch, num_actions):
        actions = rng.integers(0, num_actions, size=batch)
        return actions, [int(a) for a in actions]

    _assert_batched_env_matches_serial(draw)


def test_batched_environment_matches_serial_setpoint_actions():
    def draw(rng, batch, num_actions):
        # Raw (B, 2) setpoints in half-degree steps from 13 to 31.5: off-range
        # values, round-half-even ties and h > c all occur, and both paths clip.
        actions = rng.integers(26, 64, size=(batch, 2)) / 2.0
        return actions, [tuple(row) for row in actions]

    _assert_batched_env_matches_serial(draw)


def test_batched_environment_rejects_mismatched_episodes():
    short = get_scenario("pittsburgh/winter", days=1).build_environment(seed=0)
    long = get_scenario("pittsburgh/winter", days=2).build_environment(seed=0)
    with pytest.raises(ValueError, match="same length"):
        BatchedHVACEnvironment([short, long])


def test_batched_environment_rejects_mismatched_gain_parameters():
    import dataclasses

    spec = get_scenario("pittsburgh/winter", days=1)
    reference = spec.build_environment(seed=0)
    modified = spec.build_environment(seed=1)
    zones = modified.building.zones
    zones[0] = dataclasses.replace(zones[0], equipment_gain_w=zones[0].equipment_gain_w + 1.0)
    with pytest.raises(ValueError, match="gain parameters"):
        BatchedHVACEnvironment([reference, modified])


# ------------------------------------------------------------ shared kernels
def _bits(values) -> np.ndarray:
    """Float64 bit patterns, so equality below is bit for bit (signed zeros too)."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


ACTION_CONFIGS = [ActionSpaceConfig(), ActionSpaceConfig(16, 22, 20, 26)]
HALF_INTEGERS = st.integers(5, 40).map(lambda v: v + 0.5)
SETPOINTS = st.floats(0.0, 45.0, allow_nan=False) | HALF_INTEGERS


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(10.0, 35.0, allow_nan=False) | st.sampled_from([20.0, 23.0, 23.5, 26.0]),
            st.integers(15, 23),
            st.integers(21, 30),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
    season=st.sampled_from(["winter", "summer"]),
)
@example(rows=[(21.0, 18, 27, True), (30.0, 15, 30, False), (12.0, 23, 23, True)], season="winter")
def test_vectorised_reward_equals_compute_reward(rows, season):
    reward_config = RewardConfig(comfort=ComfortConfig.for_season(season))
    actions = ActionSpaceConfig()
    comfort = reward_config.comfort
    zone, heating, cooling, occupied = (np.array(column) for column in zip(*rows))
    reward, energy, violation = compute_rewards(
        zone,
        heating.astype(float),
        cooling.astype(float),
        reward_config.energy_weights(occupied),
        (comfort.lower, comfort.upper),
        actions.off_setpoints(),
    )
    reference = [
        compute_reward(float(z), int(h), int(c), bool(o), reward_config, actions)
        for z, h, c, o in rows
    ]
    assert np.array_equal(_bits(reward), _bits([r.reward for r in reference]))
    assert np.array_equal(_bits(energy), _bits([r.energy_proxy for r in reference]))
    assert np.array_equal(_bits(violation), _bits([r.comfort_violation for r in reference]))
    # The planners pass one scalar w_e per call; that form agrees too.
    for flag in (True, False):
        rows_with = occupied == flag
        scalar_w, _, _ = compute_rewards(
            zone[rows_with],
            heating[rows_with].astype(float),
            cooling[rows_with].astype(float),
            reward_config.energy_weight(flag),
            (comfort.lower, comfort.upper),
            actions.off_setpoints(),
        )
        assert np.array_equal(_bits(scalar_w), _bits(reward[rows_with]))


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(SETPOINTS, SETPOINTS), min_size=1, max_size=40),
    config=st.sampled_from(ACTION_CONFIGS),
)
@example(pairs=[(20.5, 21.5), (22.5, 21.5), (25.0, 22.0), (23.5, 20.5)], config=ACTION_CONFIGS[0])
def test_clip_batch_equals_scalar_clip(pairs, config):
    heating, cooling = (np.array(column, dtype=float) for column in zip(*pairs))
    batch_h, batch_c = config.clip_batch(heating, cooling)
    reference = np.array([config.clip(h, c) for h, c in pairs], dtype=float)
    assert np.array_equal(batch_h, reference[:, 0])
    assert np.array_equal(batch_c, reference[:, 1])


def test_clip_batch_rejects_non_finite_setpoints():
    with pytest.raises(ValueError):
        ActionSpaceConfig().clip_batch(np.array([20.0, np.nan]), np.array([25.0, 25.0]))


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from(ACTION_CONFIGS),
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=64),
    off_table=st.tuples(st.integers(0, 60), st.integers(0, 60)),
)
def test_pair_lookup_equals_to_index_and_is_strict(config, picks, off_table):
    space = SetpointSpace(config)
    table = np.array(space.pairs)
    chosen = table[np.array(picks) % space.n]
    expected = [space.to_index(int(h), int(c)) for h, c in chosen]
    assert space.to_indices(chosen[:, 0], chosen[:, 1]).tolist() == expected
    assert space.to_indices(table[:, 0], table[:, 1]).tolist() == list(range(space.n))
    assume(tuple(off_table) not in set(space.pairs))
    mixed = np.vstack([chosen, off_table])
    with pytest.raises(ValueError):
        space.to_indices(mixed[:, 0], mixed[:, 1])


# ------------------------------------------------------------------- planner
@pytest.fixture(scope="module")
def distillation_setup():
    environment = make_environment(days=2, seed=0)
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=1
    )
    model = ThermalDynamicsModel(hidden_sizes=(16,), seed=2)
    model.fit(data, epochs=3, seed=3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=50,
        horizon=5,
        seed=4,
    )
    sampler = AugmentedHistoricalSampler.from_dataset(data)
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=sampler,
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=3,
        planning_horizon=5,
    )
    return optimizer, sampler, generator


def test_plan_batch_matches_serial_plans(distillation_setup):
    optimizer, sampler, _generator = distillation_setup
    inputs = sampler.sample(5, np.random.default_rng(6))
    states = inputs[:, 0]
    disturbances = inputs[:, 1:]
    occupied = disturbances[:, 4] > 0.5

    serial_rngs = spawn_rngs(99, len(inputs))
    batch_rngs = spawn_rngs(99, len(inputs))
    horizon = 5
    serial = [
        optimizer.plan(
            states[i],
            np.repeat(disturbances[i].reshape(1, -1), horizon, axis=0),
            [bool(occupied[i])] * horizon,
            rng=serial_rngs[i],
        )
        for i in range(len(inputs))
    ]
    batch = optimizer.plan_batch(
        states,
        np.broadcast_to(disturbances[:, None, :], (len(inputs), horizon, 5)),
        np.broadcast_to(occupied[:, None], (len(inputs), horizon)),
        rngs=batch_rngs,
    )
    for i, result in enumerate(serial):
        assert result.best_action_index == batch.best_action_indices[i]
        assert result.best_return == batch.best_returns[i]
        assert np.array_equal(result.best_sequence, batch.best_sequences[i])
        assert result.best_setpoints == batch.result(i).best_setpoints


def test_plan_populates_best_setpoints(distillation_setup):
    optimizer, sampler, _generator = distillation_setup
    policy_input = sampler.sample(1, np.random.default_rng(8))[0]
    forecast = np.repeat(policy_input[1:].reshape(1, -1), 5, axis=0)
    result = optimizer.plan(policy_input[0], forecast, [True] * 5, rng=7)
    assert result.best_setpoints is not None
    assert result.best_setpoints == tuple(
        optimizer.action_space.to_pair(result.best_action_index)
    )


# -------------------------------------------------------------- distillation
def test_batched_generate_identical_labels(distillation_setup):
    _optimizer, _sampler, generator = distillation_setup
    # 2048 // (3 MC runs x 50 samples) = 13 inputs per chunk, so 20 entries
    # cross a chunk boundary.
    batched = generator.generate(20, seed=42)
    rng = np.random.default_rng(42)
    inputs = generator.sampler.sample(20, rng)
    serial = [generator.distill_decision(row, rng=rng) for row in inputs]
    assert np.array_equal(batched.inputs, inputs)
    assert np.array_equal(batched.action_labels, serial)


# ------------------------------------------------------------------- runner
def _strip_timing(result: ExperimentResult) -> dict:
    data = result.to_dict()
    data.pop("mean_steps_per_second")
    for episode in data["episodes"]:
        episode.pop("wall_seconds")
        episode.pop("steps_per_second")
    return data


@pytest.mark.parametrize("backend,kwargs", [
    ("batched", {"batch_size": 2}),
    ("batched", {}),
    ("process", {"workers": 2}),
])
def test_runner_backends_identical_results(backend, kwargs):
    serial = ExperimentRunner(
        "pittsburgh/winter", episodes=3, base_seed=11, max_steps=48
    ).run("rule_based")
    other = ExperimentRunner(
        "pittsburgh/winter",
        episodes=3,
        base_seed=11,
        max_steps=48,
        backend=backend,
        **kwargs,
    ).run("rule_based")
    assert _strip_timing(other) == _strip_timing(serial)


def test_runner_backends_identical_for_stochastic_agent():
    serial = ExperimentRunner(
        "tucson/summer", episodes=4, base_seed=5, max_steps=24
    ).run("random")
    batched = ExperimentRunner(
        "tucson/summer", episodes=4, base_seed=5, max_steps=24, backend="batched"
    ).run("random")
    assert _strip_timing(batched) == _strip_timing(serial)


def test_batched_backend_requires_agent_name():
    from repro.agents import ConstantAgent

    runner = ExperimentRunner(
        "pittsburgh/winter", episodes=1, max_steps=8, backend="batched"
    )
    with pytest.raises(ValueError, match="registry agent name"):
        runner.run(ConstantAgent(20, 26))


def test_runner_rejects_unknown_backend():
    with pytest.raises(ValueError, match="Unknown backend"):
        ExperimentRunner("pittsburgh/winter", backend="quantum")


# ----------------------------------------------------- agent-side batching
def test_rule_based_action_plan_matches_select_action():
    env = get_scenario("pittsburgh/winter", days=2).build_environment(seed=3)
    agent = RuleBasedAgent.from_config(env)
    plan = agent.action_plan(env)
    assert len(plan) == env.num_steps
    observation, _ = env.reset()
    for step in range(env.num_steps):
        assert plan[step] == agent.select_action(observation, env, step), step


def test_rule_based_plan_respects_preheat_and_margin():
    env = get_scenario("tucson/summer", days=1).build_environment(seed=4)
    agent = RuleBasedAgent.from_config(env, preheat_hours=2.5, setback_margin=0.5)
    plan = agent.action_plan(env)
    reference = [agent.select_action(None, env, step) for step in range(env.num_steps)]
    assert plan.tolist() == reference


def test_select_actions_batch_default_matches_per_episode():
    from repro.agents.base import BaseAgent
    from repro.agents import make_agent

    spec = get_scenario("pittsburgh/winter", days=1)
    seeds = [1, 2, 3]
    environments = [spec.build_environment(seed=s) for s in seeds]
    agents = [make_agent("random", environment=e, seed=s) for e, s in zip(environments, seeds)]
    observations = np.stack([env.reset()[0] for env in environments])
    # The default implementation consumes each agent's RNG exactly like the
    # per-episode loop would; rebuild to compare the streams.
    batch = BaseAgent.select_actions_batch(agents, observations, environments, 0)
    rebuilt = [make_agent("random", environment=e, seed=s) for e, s in zip(environments, seeds)]
    reference = [a.select_action(observations[i], environments[i], 0) for i, a in enumerate(rebuilt)]
    assert batch.tolist() == reference


def test_dt_batched_backend_matches_serial():
    pipeline = {
        "num_decision_data": 48,
        "training_epochs": 5,
        "optimizer_samples": 32,
        "num_probabilistic_samples": 64,
    }
    kwargs = dict(episodes=2, base_seed=5, max_steps=48)
    serial = ExperimentRunner("pittsburgh/winter", **kwargs).run(
        "dt", agent_config={"pipeline": pipeline}
    )
    batched = ExperimentRunner("pittsburgh/winter", backend="batched", **kwargs).run(
        "dt", agent_config={"pipeline": pipeline}
    )
    assert _strip_timing(batched) == _strip_timing(serial)
