"""Every reader of a user's file, fed arbitrary bytes or a valid file with a
few bytes changed, inserted or deleted, fails only as a malformed input
does: ``InputError``, ``ConfigError`` or ``OSError``, never another
exception; the checkpoint reader returns what the one-shot reader of the
whole document returns, or raises its message.  Inputs stay under 4 KiB
and the runs are derandomized, so the same examples run every time.

Every command that takes a number, given an extreme or malformed value for
one numeric flag on tiny data, exits 0, 2, 3 or 4 with no traceback and no
numpy floating-point warning, and a failure prints one ``error:`` line; a
negative value given as its own argument reads as the same value joined
to its flag with ``=``."""

import codecs
import contextlib
import io
import pickle
import tempfile
import warnings

import hypothesis
import hypothesis.strategies as st
import pytest

from aurelab import cli, data, experiments, relabel, trainer
from aurelab.errors import ConfigError, InputError
from aurelab.relabel import AUDIT_HEADER
from oracles import checkpoint_outcome, one_shot_load_checkpoint

# a reader's name, and the call that reads the file at a path
READERS = {
    "dataset": data.load,
    "audit": relabel.read_audit,
    "metrics": trainer.read_metrics,
    "checkpoint": trainer.load_checkpoint,
    "spec": experiments.load_spec,
}

SPEC = """[experiment]
name = ablation
seeds = 0,1
rate = 0.2
out = out

[dataset]
n_classes = 3
n_units = 6
dim = 8
n = 160
test_fraction = 0.25

[train]
epochs = 3
lr_drops = 2:0.005
use_aux_branch = false
"""


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file of each kind, each under 4 KiB."""
    root = tmp_path_factory.mktemp("valid")
    ds = data.corrupt_labels(data.generate(2, 4, 1, 6, 4.0, 1.0, seed=0),
                             0.5, seed=0)
    cfg = trainer.TrainConfig(hidden_dim=1, feat_dim=1, node_dim=1,
                              gcn_channels=1, epochs=1, batch_size=3,
                              warmup_epochs=1, ramp_pivot=1, lr_drops=())
    result = trainer.train(ds, cfg, eval_dataset=ds)
    data.save(ds, root / "dataset")
    trainer.save_checkpoint(result.checkpoint, root / "checkpoint")
    trainer.write_metrics_csv(result.metrics, ds.n_classes, root / "metrics")
    cli._write_graph_files(result.model.graph, root)
    (root / "audit").write_text(f"{AUDIT_HEADER}\n3,0,1,0,0.75,0.25\n"
                                f"3,4,0,1,1.5,0.125\n")
    (root / "spec").write_text(SPEC)
    files = {kind: (root / kind).read_bytes() for kind in READERS}
    files["graph"] = (root / "au_adjacency_normalized.csv").read_bytes()
    assert all(len(raw) < 4096 for raw in files.values())
    return files


# (offset, edit, byte): the byte at the offset is set to the byte, or the
# byte is inserted there, or the byte there is deleted
EDITS = st.lists(st.tuples(st.integers(0, 4095),
                           st.sampled_from(["set", "insert", "delete"]),
                           st.integers(0, 255)), min_size=1, max_size=6)


def edited(raw: bytes, edits) -> bytes:
    buf = bytearray(raw)
    for at, edit, byte in edits:
        at %= len(buf) + 1
        if edit == "insert":
            buf.insert(at, byte)
        elif at < len(buf):
            if edit == "set":
                buf[at] = byte
            else:
                del buf[at]
    return bytes(buf)


SETTINGS = hypothesis.settings(max_examples=120, deadline=None,
                               derandomize=True, database=None)
# arbitrary bytes, or the edits to make to a valid file
SOURCES = st.one_of(st.binary(max_size=4095), EDITS)


def _bytes(valid_raw: bytes, source) -> bytes:
    return source if isinstance(source, bytes) else edited(valid_raw, source)


@pytest.mark.parametrize("kind", list(READERS))
def test_reader_raises_only_input_errors(valid, tmp_path, kind):
    path = tmp_path / kind

    @SETTINGS
    @hypothesis.given(source=SOURCES)
    def read(source):
        path.write_bytes(_bytes(valid[kind], source))
        try:
            READERS[kind](path)
        except (InputError, ConfigError, OSError):
            pass

    read()


def test_checkpoint_reads_as_the_one_shot_reader(valid, tmp_path):
    """A checkpoint with a few bytes edited, or cut short at any byte, gives
    the one-shot reader's checkpoint or exactly its message."""
    path = tmp_path / "checkpoint"
    raw = valid["checkpoint"]
    # digits set to other digits: files the row-at-a-time walk often reads
    digits = [at for at, byte in enumerate(raw) if byte in b"0123456789"]
    digit_sets = st.lists(st.tuples(st.sampled_from(digits), st.just("set"),
                                    st.sampled_from(b"0123456789")),
                          min_size=1, max_size=3)

    @hypothesis.settings(SETTINGS, max_examples=200)
    @hypothesis.given(source=st.one_of(EDITS, digit_sets,
                                       st.integers(0, len(raw))))
    def read(source):
        path.write_bytes(raw[:source] if isinstance(source, int)
                         else edited(raw, source))
        assert checkpoint_outcome(trainer.load_checkpoint, path) == \
            checkpoint_outcome(one_shot_load_checkpoint, path)

    read()


def test_inspect_graph_exits_0_or_3_with_one_error_line(valid, tmp_path):
    path = tmp_path / "graph.csv"

    @SETTINGS
    @hypothesis.given(source=SOURCES)
    def inspect(source):
        path.write_bytes(_bytes(valid["graph"], source))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["inspect", "graph", str(path)])
        assert rc in (0, 3)
        if rc == 3:
            assert err.getvalue().startswith(f"error: {path}")
            assert err.getvalue().count("\n") == 1

    inspect()


@pytest.mark.parametrize("kind", list(READERS))
def test_byte_order_mark_reads_as_the_file_without_it(valid, tmp_path, kind):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(valid[kind])
    marked.write_bytes(codecs.BOM_UTF8 + valid[kind])
    assert pickle.dumps(READERS[kind](marked)) == \
        pickle.dumps(READERS[kind](plain))


def test_inspect_graph_reads_a_byte_order_mark_as_without_it(valid, tmp_path,
                                                             capsys):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(valid["graph"])
    marked.write_bytes(codecs.BOM_UTF8 + valid["graph"])
    assert cli.main(["inspect", "graph", str(plain)]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["inspect", "graph", str(marked)]) == 0
    assert capsys.readouterr().out == printed


TINY_SPEC = """[dataset]
n_classes = 3
n_units = 6
dim = 4
n = 40

[train]
hidden_dim = 4
feat_dim = 4
node_dim = 2
gcn_channels = 2
batch_size = 16
warmup_epochs = 0
ramp_pivot = 1
lr_drops =
"""

# each command's tiny run, and the flags of it that take a number; {out} is
# a fresh output directory and {inputs} the tiny dataset's and spec's
TINY_RUNS = {
    "gen": (["--out", "{out}/ds.txt", "--size", "40", "--dim", "4",
             "--classes", "3", "--aus", "6", "--test-fraction", "0.25"],
            ["--classes", "--aus", "--dim", "--size", "--spread", "--noise",
             "--au-noise", "--corruption", "--test-fraction", "--seed"]),
    "train": (["--data", "{inputs}/ds.txt", "--test-data", "{inputs}/ds.txt.test",
               "--out", "{out}", "--epochs", "2", "--batch-size", "16"],
              ["--epochs", "--batch-size", "--high-fraction", "--rank-margin",
               "--ramp-pivot", "--warmup-epochs", "--lr", "--lr-aux",
               "--momentum", "--seed"]),
    "ablate": (["--spec", "{inputs}/tiny.spec", "--out", "{out}", "--epochs", "1",
                "--seeds", "0"], ["--seeds", "--epochs", "--size", "--rate"]),
    "sweep": (["--spec", "{inputs}/tiny.spec", "--out", "{out}", "--epochs", "1",
               "--seeds", "0", "--rates", "0.2"],
              ["--seeds", "--epochs", "--size", "--rates"]),
}
NUMERIC_FLAGS = [(command, flag) for command, (_, flags) in TINY_RUNS.items()
                 for flag in flags]
FLAG_VALUES = ["nan", "inf", "-inf", "1e308", "-1", "0", str(10**20), "abc",
               ""]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    argv, _ = TINY_RUNS["gen"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", *(a.format(out=root) for a in argv)]) == 0
    (root / "tiny.spec").write_text(TINY_SPEC)
    return root


def test_numeric_flag_value_exits_with_a_documented_code(tiny_inputs,
                                                         tmp_path):
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(command_flag=st.sampled_from(NUMERIC_FLAGS),
                      value=st.sampled_from(FLAG_VALUES))
    # what a scan of every flag and value found: a run that never ended,
    # a ValueError traceback, and numpy's overflow warnings
    @hypothesis.example(command_flag=("train", "--epochs"), value=str(10**20))
    @hypothesis.example(command_flag=("gen", "--dim"), value=str(10**20))
    @hypothesis.example(command_flag=("sweep", "--size"), value=str(10**20))
    @hypothesis.example(command_flag=("train", "--lr"), value="1e308")
    @hypothesis.example(command_flag=("train", "--lr-aux"), value="1e308")
    def run(command_flag, value):
        command, flag = command_flag
        out = tempfile.mkdtemp(dir=tmp_path)
        rc, _, stderr, caught = run_main(
            tiny_argv(command, flag, out, tiny_inputs, flag, value))
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if rc:
            assert sum("error: " in line for line in
                       stderr.splitlines()) == 1, stderr

    run()


@pytest.mark.parametrize("value", ["-inf", "-1e3"])
@pytest.mark.parametrize("command,flag", NUMERIC_FLAGS)
def test_negative_value_on_its_own_reads_as_joined_to_its_flag(
        tiny_inputs, tmp_path, command, flag, value):
    """``--lr -inf`` is ``--lr=-inf``: the flag's own check refuses it in
    one ``error:`` line, where argparse took ``-inf`` for an option."""
    apart, joined = (run_main(tiny_argv(command, flag, tmp_path, tiny_inputs,
                                        *given))[:3]
                     for given in ([flag, value], [f"{flag}={value}"]))
    assert apart == joined
    rc, _, stderr = apart
    assert rc == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


def tiny_argv(command: str, flag: str, out, inputs, *given: str) -> list[str]:
    """``command``'s tiny run with ``flag`` and its value there, if any,
    replaced by the arguments ``given``."""
    argv = [a.format(out=out, inputs=inputs) for a in TINY_RUNS[command][0]]
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return [command, *argv, *given]


def run_main(argv: list[str]) -> tuple[int, str, str, list]:
    """(exit code, stdout, stderr, warnings raised) of ``cli.main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse refuses the arguments
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue(), caught
