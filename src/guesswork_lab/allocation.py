"""Least-likely-first bin allocation and backdoor password planting.

Users are assigned distinct bins in ascending likelihood order; the
backdoor then maps each user's freshly drawn password onto their bin by
writing a single override, resolving password
collisions first-writer-wins toward the less likely bin.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .hashmodel import BinLabel, KeyedHashModel, weight_layer_order
from .infotheory import check_bias


@dataclass(frozen=True)
class AllocationPlan:
    """Ordered user -> bin assignment, least likely bin first."""

    m: int
    p: float
    users: tuple[tuple[int, BinLabel], ...]

    @property
    def user_count(self) -> int:
        return len(self.users)

    @property
    def min_type(self) -> float:
        """Type of the most likely (last allocated) bin; the realized
        counterpart of the nominal s."""
        return min(b.type_fraction for _, b in self.users)

    def bins(self) -> list[BinLabel]:
        return [b for _, b in self.users]


@dataclass
class BackdoorOutcome:
    """What a backdoor installation actually did.

    planted holds the overrides written (one per password index);
    assignments records every user's drawn password and final bin;
    reassigned lists the collision-displaced users with their final bin.
    """

    planted: list[tuple[int, BinLabel]] = field(default_factory=list)
    assignments: list[tuple[int, int, BinLabel]] = field(default_factory=list)
    reassigned: list[tuple[int, BinLabel]] = field(default_factory=list)
    collision_count: int = 0


def allocate_bins(m: int, p: float, user_count: int) -> AllocationPlan:
    """Assign the user_count least likely bins, user 1 first: the
    weight-layer order, heaviest layer first (ascending inside a layer).

    For p < 1/2 user 1 always receives the all-ones bin.
    """
    check_bias(p)
    if not 1 <= user_count <= (1 << m):
        raise ValueError(f"user_count must lie in [1, 2^{m}], got {user_count}")
    bins = weight_layer_order(m, True, np.arange(user_count)).tolist()
    users = tuple((uid, BinLabel(b, m)) for uid, b in enumerate(bins, 1))
    return AllocationPlan(m=m, p=p, users=users)


def resolve_collisions(
    users: tuple[tuple[int, BinLabel], ...], passwords: list[int]
) -> BackdoorOutcome:
    """First-writer-wins resolution of drawn passwords against a plan.

    Users must arrive in plan order (least likely bin first), so the
    first writer of a password index always holds the least likely bin
    among its claimants; later claimants are reassigned to it.
    """
    outcome = BackdoorOutcome()
    claimed: dict[int, BinLabel] = {}
    for (uid, bin_label), pw in zip(users, passwords):
        if pw not in claimed:
            claimed[pw] = bin_label
            outcome.planted.append((pw, bin_label))
            outcome.assignments.append((uid, pw, bin_label))
        else:
            final = claimed[pw]
            outcome.collision_count += 1
            outcome.reassigned.append((uid, final))
            outcome.assignments.append((uid, pw, final))
    return outcome


def backdoor_install(
    model: KeyedHashModel, plan: AllocationPlan, password_seed: int
) -> BackdoorOutcome:
    """Plant each user's password into their allocated bin via overrides.

    User i draws rng.passwords at counter i - 1: the passwords of trial 0
    of an allocated experiment seeded with password_seed.  Each planted
    index is written exactly once; a user whose password was already
    claimed keeps no override and is reassigned to the earlier (less
    likely) claimant's bin.
    """
    if plan.m != model.m:
        raise ValueError(f"plan m={plan.m} does not match model m={model.m}")
    drawn = rng.passwords(password_seed, np.arange(plan.user_count), model.n).tolist()
    outcome = resolve_collisions(plan.users, drawn)
    for pw, bin_label in outcome.planted:
        model.overrides[pw] = bin_label.bits
    return outcome
