import numpy as np
import pytest

from astzeros import TimeGrid, sample_white_noise
from astzeros import io as zio
from astzeros.cli import load_config, main


@pytest.fixture
def signal_file(tmp_path):
    tg = TimeGrid.from_sampling(0.0, 64.0, 256)
    sig = sample_white_noise(256, 5, grid=tg)
    path = tmp_path / "sig.csv"
    zio.write_signal_csv(sig, path)
    return path


def test_transform_zeros_stats_pipeline(tmp_path, signal_file):
    tf = tmp_path / "tf.npz"
    rc = main(["transform", "--in", str(signal_file), "--out", str(tf),
               "--alpha", "30", "--xi-min", "0.25", "--xi-max", "4",
               "--channels", "48"])
    assert rc == 0 and tf.exists()

    zcsv = tmp_path / "zeros.csv"
    rc = main(["zeros", "--in", str(tf), "--out", str(zcsv),
               "--no-time-guard"])
    assert rc == 0
    w = zio.read_zeros_csv(zcsv)
    assert len(w) > 0 and np.all(np.abs(w) < 1)


def test_transform_out_path_is_used_as_given(tmp_path, signal_file):
    out = tmp_path / "out"
    out.mkdir()
    tf = out / "tf"
    rc = main(["transform", "--in", str(signal_file), "--out", str(tf),
               "--alpha", "30", "--xi-min", "0.25", "--xi-max", "4",
               "--channels", "16"])
    assert rc == 0
    assert [f.name for f in out.iterdir()] == ["tf"]
    rc = main(["zeros", "--in", str(tf), "--out", str(out / "zeros"),
               "--no-time-guard"])
    assert rc == 0 and (out / "zeros").exists()


def test_zeros_on_a_non_transform_file_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "tf.csv"
    bad.write_text("# beta=14.5\nj,m,x,xi,re,im,abs\n"
                   "0,0,0.0,1.0,1.0,0.0,1.0\n")
    rc = main(["zeros", "--in", str(bad), "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "z.csv").exists()


def test_gaf_and_stats_commands(tmp_path):
    out = tmp_path / "gaf"
    rc = main(["gaf", "--alpha", "40", "--r-max", "0.7", "--seed", "1",
               "--realizations", "2", "--out", str(out)])
    assert rc == 0
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["gaf_zeros_0000.csv",
                                       "gaf_zeros_0001.csv"]
    st = tmp_path / "stats.csv"
    rc = main(["stats", "--in", str(files[0]), "--out", str(st),
               "--alpha", "40", "--window-radius", "0.7", "--r-max", "0.35"])
    assert rc == 0
    lines = st.read_text().splitlines()
    assert lines[1] == "r,g_hat,n_pairs,n_centers"


def test_binary_signal_input(tmp_path):
    tg = TimeGrid.from_sampling(0.0, 64.0, 256)
    sig = sample_white_noise(256, 5, grid=tg)
    path = tmp_path / "sig.bin"
    zio.write_signal_binary(sig, path)
    tf = tmp_path / "tf.npz"
    rc = main(["transform", "--in", str(path), "--out", str(tf),
               "--alpha", "30", "--xi-min", "0.25", "--xi-max", "4",
               "--channels", "32"])
    assert rc == 0 and tf.exists()


def test_experiment_command_with_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "alpha = 50\nn_samples = 512\nfs = 512\nn_channels = 80\n"
        "realizations = 2\nr_max = 0.3\nseed = 3\n"
    )
    out = tmp_path / "res"
    rc = main(["experiment", "--config", str(cfgfile), "--workers", "2",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "pair_correlation.csv").exists()


def test_load_config_overrides_and_errors(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alpha = 42  # comment\n\nseed = 9\n")
    cfg = load_config(cfgfile, {"seed": "11", "n_samples": None})
    assert cfg.alpha == 42.0 and cfg.seed == 11
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("alpha\n")
    with pytest.raises(ValueError):
        load_config(bad)


def test_failure_is_machine_readable(tmp_path, capsys):
    rc = main(["transform", "--in", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "tf.npz"), "--alpha", "30"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_removed_options_are_rejected(tmp_path, signal_file, capsys):
    # the reference evaluator and the metric convention are not options
    with pytest.raises(SystemExit):
        main(["transform", "--in", str(signal_file),
              "--out", str(tmp_path / "tf.npz"), "--direct"])
    with pytest.raises(SystemExit):
        main(["experiment", "--convention", "pi"])
    capsys.readouterr()
    old = tmp_path / "old.cfg"
    old.write_text("alpha = 50\nconvention = pi\n")
    with pytest.raises(ValueError, match="unknown key 'convention'"):
        load_config(old)
