#!/usr/bin/env python3
"""Insertion-loss budgets of the analog beamforming networks.

Every signal path crosses one divider cascade, one phase shifter, and one
combiner cascade; an X-way stage costs ceil(log2 X) two-way stages. A
subarray network's path crosses one of its fully connected blocks.
"""

from fdiab import RfNetwork, loss_fully_connected

N_T = N_R = 256
N_RF_TX, N_RF_RX, USERS = 4, 8, 4

print(f"{'side / structure':<34}{'active':>10}{'passive':>10}")
print("-" * 54)
rows = [
    ("donor tx, fully connected",
     lambda kind: loss_fully_connected("tx", N_T, N_RF_TX, kind)),
    ("donor tx, subarray",
     lambda kind: RfNetwork.partition(N_T, N_RF_TX, USERS).budget("tx", kind)),
    ("node rx, fully connected",
     lambda kind: loss_fully_connected("rx", N_R, N_RF_RX, kind)),
    ("node rx, subarray",
     lambda kind: RfNetwork.partition(N_R, N_RF_RX, USERS).budget("rx", kind)),
    ("user rx (64 elements, 1 chain)",
     lambda kind: loss_fully_connected("rx", 64, 1, kind)),
]
for name, make in rows:
    active = make("active").total_db
    passive = make("passive").total_db
    print(f"{name:<34}{active:>8.1f} dB{passive:>8.1f} dB")

print()
budget = loss_fully_connected("tx", N_T, N_RF_TX, "passive")
print("breakdown of the fully connected transmit path (passive):")
for component, stages, db in budget.breakdown:
    print(f"  {component:<16} {stages} stage(s)  {db:5.1f} dB")
print(f"  total {budget.total_db:.1f} dB -> amplitude factor {budget.linear_scale:.4f}")
