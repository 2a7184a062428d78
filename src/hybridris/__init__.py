"""Energy-aware hybrid RIS simulator for underlay MISO cognitive radio,
with deep-RL control (SAC, TD3, DDPG) and reward-poisoning defenses."""

from .agents import (DdpgAgent, DdpgConfig, RandomAgent, ReplayBuffer,
                     SacAgent, SacConfig, Td3Agent, Td3Config, random_action)
from .channel import (CascadeSpec, ChannelSet, FadingMode, Topology,
                      pu_power_gains, sample_cascaded, sample_channel_set)
from .env import (EnvConfig, RisCrnEnv, StepOutcome, action_size,
                  decode_action, observation_size, step_log_record)
from .harness import (ExperimentSpec, RunSummary, TrainingLoop, build_spec,
                      compare, load_checkpoint, moving_average,
                      replay_summary, run_experiment, run_single,
                      run_spec_dict, save_checkpoint)
from .nets import Adam, DenseNet, soft_update
from .numerics import make_rng, sample_cn01
from .phy import (NoiseParams, PowerConstraint, RateReport, db_to_linear,
                  power_cap, project_beamformer, rate_report, sinrs,
                  tx_power)
from .ris import (ActiveParams, ConsumptionParams, EnergyLedger,
                  HarvestParams, PassiveParams, RisMode, build_reflection,
                  energy_consumed, energy_gain, harvest, passive_amplitude,
                  resolve_mode, wrap_phase)
from .security import (AttackConfig, DefenseConfig, RewardPipeline,
                       RewardPipelineRecord, attack, defend)

__version__ = "0.1.0"
