"""Parallel experiment campaigns: seeded trial specs fanned across cores."""

from repro.parallel.campaign import (
    CampaignError,
    TrialResult,
    TrialSpec,
    available_jobs,
    campaign_summary,
    derive_trial_seed,
    normalize_jobs,
    run_arms,
    run_campaign,
)

__all__ = [
    "CampaignError",
    "TrialResult",
    "TrialSpec",
    "available_jobs",
    "campaign_summary",
    "derive_trial_seed",
    "normalize_jobs",
    "run_arms",
    "run_campaign",
]
