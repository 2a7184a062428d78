"""Energy-aware hybrid RIS simulator for underlay MISO cognitive radio,
with deep-RL control (SAC, TD3, DDPG) and reward-poisoning defenses."""

from .agents import (DdpgAgent, DdpgConfig, RandomAgent, ReplayBuffer,
                     SacAgent, SacConfig, Td3Agent, Td3Config, random_action)
from .channel import (CascadeSpec, Topology, pu_power_gains,
                      sample_channel_set)
from .env import (STEP_LOG_FIELDS, EnvConfig, RisCrnEnv, Slots, StepOutcome,
                  action_size, observation_size, score)
from .harness import (ExperimentSpec, RunSummary, TrainingLoop, build_spec,
                      compare, moving_average, replay_summary,
                      run_experiment, run_single, run_spec_dict)
from .nets import Adam, DenseNet, soft_update
from .numerics import make_rng
from .phy import (NoiseParams, PowerConstraint, db_to_linear, power_cap,
                  project_beamformer, rate_report, sinrs, tx_power)
from .ris import (ActiveParams, ConsumptionParams, HarvestParams,
                  PassiveParams, RisMode, build_reflection, energy_consumed,
                  energy_gain, harvest, passive_amplitude, resolve_mode,
                  wrap_phase)
from .security import (PIPELINE_LOG_FIELDS, AttackConfig, DefenseConfig,
                       RewardPipeline, RewardPipelineRecord, attack, defend)

__version__ = "0.1.0"
