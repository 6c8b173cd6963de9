import numpy as np
import pytest

from fdiab.errors import ConfigurationError
from fdiab.rfil import PS_KINDS, RfilBudget, RfNetwork, loss_fully_connected

PASSIVE, ACTIVE, IDEAL = "passive", "active", "ideal"


def test_fully_connected_tx_closed_form():
    # 0.6*ceil(log2 256) + 8.8 + 3.6*ceil(log2 4) = 4.8 + 8.8 + 7.2
    budget = loss_fully_connected("tx", 256, 4, PASSIVE)
    assert abs(budget.total_db - 20.8) < 1e-12


def test_subarray_tx_closed_form():
    # 0.6*ceil(log2 64) + 8.8 = 3.6 + 8.8
    budget = RfNetwork.partition(256, 4, 4).budget("tx", PASSIVE)
    assert abs(budget.total_db - 12.4) < 1e-12


def test_iab_rx_subarray_closed_form():
    # 0.6*ceil(log2 2) - 2.3 + 3.6*ceil(log2 64) = 0.6 - 2.3 + 21.6
    budget = RfNetwork.partition(256, 8, 4).budget("rx", ACTIVE)
    assert abs(budget.total_db - 19.9) < 1e-12


@pytest.mark.parametrize("side,n_ant,n_rf", [("tx", 256, 4), ("rx", 64, 2), ("tx", 128, 8)])
def test_active_passive_delta_constant(side, n_ant, n_rf):
    delta = loss_fully_connected(side, n_ant, n_rf, ACTIVE).total_db \
        - loss_fully_connected(side, n_ant, n_rf, PASSIVE).total_db
    assert abs(delta + 11.1) < 1e-12


def test_ideal_components_are_exactly_transparent():
    budget = loss_fully_connected("tx", 256, 4, IDEAL)
    assert budget.total_db == 0.0
    assert budget.linear_scale == 1.0
    mat = np.exp(1j * np.random.default_rng(0).uniform(0, 2 * np.pi, (8, 2)))
    out = mat * budget.linear_scale
    assert np.array_equal(out, mat)


def test_breakdown_sums_to_total():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n_rf = int(rng.integers(1, 9))
        n_ant = n_rf * int(rng.integers(1, 65))
        for kind in ("active", "passive"):
            b = loss_fully_connected("rx", n_ant, n_rf, kind)
            assert abs(b.total_db - sum(db for _, _, db in b.breakdown)) < 1e-12


def test_loss_monotone_in_antenna_count():
    losses = [loss_fully_connected("tx", n, 4, PASSIVE).total_db for n in (8, 16, 64, 256, 1024)]
    assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_subarray_tx_below_fully_connected_tx():
    for n_t, n_rf, u in ((256, 4, 4), (128, 8, 8), (64, 2, 2)):
        for kind in ("active", "passive"):
            fc = loss_fully_connected("tx", n_t, n_rf, kind).total_db
            sa = RfNetwork.partition(n_t, n_rf, u).budget("tx", kind).total_db
            assert sa < fc


def test_apply_rfil_amplitude_scaling():
    # the 20.8 dB path loss scales RF-matrix amplitudes by 1/sqrt(L_RF)
    budget = loss_fully_connected("tx", 256, 4, PASSIVE)
    mat = np.ones((4, 4), dtype=complex)
    out = mat * budget.linear_scale
    assert np.isclose(np.linalg.norm(out), np.linalg.norm(mat) / np.sqrt(10 ** 2.08))


def test_twenty_db_budget_scales_amplitude_by_tenth():
    twenty = RfilBudget(20.0, (("phase-shifter", 1, 20.0),))
    mat = np.eye(3, dtype=complex)
    assert np.allclose(mat * twenty.linear_scale, 0.1 * mat)
    unit = np.ones(5) / np.sqrt(5.0)
    assert np.isclose(np.linalg.norm(unit * twenty.linear_scale), 0.1)


def test_invalid_counts_raise():
    with pytest.raises(ConfigurationError):
        loss_fully_connected("tx", 2, 4, PASSIVE)
    with pytest.raises(ConfigurationError, match="subarray-divisibility"):
        RfNetwork.partition(10, 1, 3)
    with pytest.raises(ConfigurationError, match="subarray-divisibility"):
        RfNetwork.partition(64, 6, 4)
    with pytest.raises(ConfigurationError):
        loss_fully_connected("sideways", 8, 2, PASSIVE)
    with pytest.raises(ConfigurationError):
        loss_fully_connected("tx", 8, 2, "lossy")


@pytest.mark.parametrize("side", ["tx", "rx"])
@pytest.mark.parametrize("kind", PS_KINDS)
def test_subarray_is_fully_connected_blocks(side, kind):
    # S disjoint blocks of a antennas and c chains each price one path like
    # a single fully connected a-antenna, c-chain stage
    rng = np.random.default_rng(11)
    for _ in range(20):
        s, c = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        a = c * int(rng.integers(1, 33))
        sub = RfNetwork.partition(s * a, s * c, s).budget(side, kind)
        fc = loss_fully_connected(side, a, c, kind)
        assert (sub.total_db, sub.breakdown) == (fc.total_db, fc.breakdown)
