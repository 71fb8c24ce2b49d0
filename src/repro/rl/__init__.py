"""Deep reinforcement learning: DQN (Algorithm 2) and its extensions.

- :mod:`repro.rl.replay` -- the uniform experience-replay memory of the
  original DQN (ring buffer, preallocated arrays);
- :mod:`repro.rl.prioritized_replay` -- proportional prioritized replay
  (sum tree + importance weights), a Section 5 "newer variant" component;
- :mod:`repro.rl.schedules` -- the linear epsilon annealing of Table 1;
- :mod:`repro.rl.agent` -- :class:`DQNAgent` with the target network,
  reward-clipped learning step, and the DDQN/dueling/C51 switches;
- :mod:`repro.rl.distributional` -- the categorical C51 value head;
- :mod:`repro.rl.trainer` -- the episode loop of Algorithm 2 with the
  Figure 4 metric instrumentation.
"""

from repro.rl.replay import ReplayMemory, Transition
from repro.rl.prioritized_replay import PrioritizedReplayMemory, SumTree
from repro.rl.schedules import LinearSchedule, ConstantSchedule, EpsilonGreedy
from repro.rl.agent import DQNAgent, AgentConfig
from repro.rl.distributional import DistributionalConfig
from repro.rl.trainer import Trainer, TrainingHistory, EpisodeStats
from repro.rl.evaluation import (
    EvaluationResult,
    PeriodicEvaluator,
    evaluate_policy,
)
from repro.rl.learner import LearnerCore
from repro.rl.nstep import NStepTransitionBuffer
from repro.rl.vector_trainer import VectorTrainer
from repro.rl.distributed import ActorLearnerTrainer

__all__ = [
    "ReplayMemory",
    "Transition",
    "PrioritizedReplayMemory",
    "SumTree",
    "LinearSchedule",
    "ConstantSchedule",
    "EpsilonGreedy",
    "DQNAgent",
    "AgentConfig",
    "DistributionalConfig",
    "Trainer",
    "TrainingHistory",
    "EpisodeStats",
    "EvaluationResult",
    "PeriodicEvaluator",
    "evaluate_policy",
    "LearnerCore",
    "NStepTransitionBuffer",
    "VectorTrainer",
    "ActorLearnerTrainer",
]
