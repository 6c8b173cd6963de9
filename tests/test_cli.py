import csv

import pytest

from fdiab.cli import main
from fdiab.config import ExperimentConfig, save_config
from fdiab.harness import run_experiment, write_csv
from dataclasses import replace

TINY_INI = replace(
    ExperimentConfig(), subcarriers=32, num_taps=16,
    donor_rows=4, donor_cols=4, iab_rows=4, iab_cols=4, user_rows=2, user_cols=2,
    clusters=3, rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
    panel_separation_wavelengths=5.0,
    snr_db_grid=(10.0,), sigma_e_grid=(0.0, 0.1), cee_snrs_db=(10.0,),
    cee_ps_kinds=("active",), sic_chain_counts=(2,), experiments=("fig4", "fig5"),
    trials=2, master_seed=5,
)


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.ini"
    save_config(TINY_INI, path)
    return str(path)


def test_validate_default_config():
    assert main(["validate"]) == 0


def test_validate_bad_config(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\nnum_taps = 4096\n")
    assert main(["validate", "--config", str(path)]) == 2


@pytest.mark.parametrize("text", [
    "[DEFAULT]\ntrials = 3\n",
    "[DEFAULT]\ntrials = 3\n[run]\nmaster_seed = 2\n",
    "[run]\ntrials = 3\ntrials = 4\n",
    "trials = 3\n",
], ids=["default-sets-nothing", "default-copied-into-run", "duplicate-key", "no-section-header"])
def test_ill_formed_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate"])
    assert exc.value.code == 2


def test_run_then_figures(tmp_path, tiny_cfg):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert out.exists()
    agg = tmp_path / "fig.csv"
    assert main(["figures", "--results", str(out), "--out", str(agg),
                 "--fig", "fig4a", "--fig", "fig5a"]) == 0
    text = agg.read_text()
    assert "se_std" in text.splitlines()[0]
    assert len(text.splitlines()) > 1


def test_run_seed_determinism(tmp_path, tiny_cfg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", tiny_cfg, "--out", str(a), "--seed", "7",
                 "--trials", "2"]) == 0
    assert main(["run", "--config", tiny_cfg, "--out", str(b), "--seed", "7",
                 "--trials", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_overrides_take_effect(tmp_path, tiny_cfg):
    out, expected, other = tmp_path / "out.csv", tmp_path / "expected.csv", tmp_path / "8.csv"
    assert main(["run", "--config", tiny_cfg, "--out", str(out), "--seed", "7",
                 "--trials", "1", "--threads", "2"]) == 0
    write_csv(run_experiment(replace(TINY_INI, master_seed=7, trials=1)), expected)
    assert out.read_bytes() == expected.read_bytes()
    assert main(["run", "--config", tiny_cfg, "--out", str(other), "--seed", "8",
                 "--trials", "1"]) == 0
    assert other.read_bytes() != out.read_bytes()


def test_repeated_figure_exits_2(tmp_path, tiny_cfg):
    out, agg = tmp_path / "results.csv", tmp_path / "fig.csv"
    assert main(["run", "--config", tiny_cfg, "--out", str(out), "--trials", "1"]) == 0
    assert main(["figures", "--results", str(out), "--out", str(agg),
                 "--fig", "fig4a", "--fig", "fig4a"]) == 2
    assert not agg.exists()


def test_figures_without_matching_rows(tmp_path, tiny_cfg):
    # the TINY_INI sweep has no fig6 rows and, with active phase shifters
    # only, no fig5b rows: a request for either exits 2 and writes nothing
    out, agg = tmp_path / "results.csv", tmp_path / "x.csv"
    main(["run", "--config", tiny_cfg, "--out", str(out)])
    for figures in (["fig6"], ["fig4a", "fig6"], ["fig5a", "fig5b"]):
        flags = [arg for figure in figures for arg in ("--fig", figure)]
        assert main(["figures", "--results", str(out), "--out", str(agg), *flags]) == 2
        assert not agg.exists()
    # without --fig, every view that has rows
    assert main(["figures", "--results", str(out), "--out", str(agg)]) == 0
    with open(agg, encoding="utf-8", newline="") as fh:
        assert {cell["figure"] for cell in csv.DictReader(fh)} == {"fig4a", "fig4b", "fig5a"}
