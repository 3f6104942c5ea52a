"""Analytic reliability models.

Quantifies the paper's §5 claim that "the provision of a spare is one of
the most effective ways to increase mean time to data loss": Markov MTTDL
models for RAID-5, declustered arrays without sparing, and PDDL-style
arrays with distributed sparing, driven by the simulator's measured
rebuild times.
"""

from repro.reliability.mttdl import (
    ArrayReliability,
    CampaignPrediction,
    campaign_loss_probability,
    earliest_failures,
    exponential_lifetime_ms,
    mttdl_declustered,
    mttdl_distributed_sparing,
    mttdl_raid5,
    predict_campaign_loss,
)

__all__ = [
    "ArrayReliability",
    "CampaignPrediction",
    "campaign_loss_probability",
    "earliest_failures",
    "exponential_lifetime_ms",
    "mttdl_declustered",
    "mttdl_distributed_sparing",
    "mttdl_raid5",
    "predict_campaign_loss",
]
