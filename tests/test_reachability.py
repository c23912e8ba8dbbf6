"""Reachability: every function and method defined in the package runs in
the commands a user has, apart from a short allow-list of entries that exist
for the tests or the benchmark, each with its reason."""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import fdda
from fdda.cli import main

PACKAGE_DIR = Path(fdda.__file__).parent

# qualified name -> why no command calls it
ALLOWED = {
    "autodiff.tape_size": "read by the benchmark's tracing of backward",
    "autodiff.Tensor.__repr__": "debugging output",
    "autodiff.Tensor.sum": "the benchmark's layer-attribution test sums logits to a scalar loss",
    "autodiff.sum_": "Tensor.sum's op",
}


def _defined_functions():
    """Qualified name -> code object of every function and method written in
    the package's source files (dataclass-generated methods have none)."""
    found = {}

    def add(name, fn):
        code = getattr(inspect.unwrap(fn), "__code__", None)
        if code is not None and Path(code.co_filename).parent == PACKAGE_DIR:
            found[name] = code

    for info in pkgutil.iter_modules(fdda.__path__):
        mod = importlib.import_module(f"fdda.{info.name}")
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                add(f"{info.name}.{attr}", value)
            elif inspect.isclass(value):
                for meth, member in vars(value).items():
                    if isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        add(f"{info.name}.{attr}.{meth}", member)
    return found


def _run_commands(root: Path):
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"samples_per_class": 4}}))
    common = ["--config", str(cfg), "--seed", "0"]
    model = root / "f.fdda"
    # an untrained classifier is enough: the quantize arms train through the
    # same optimizer, backward and train-mode BN code as pretraining does
    assert main(["pretrain", *common, "--out", str(model), "--epochs", "0"]) == 0
    assert main(["analyze-bns", *common, "--model", str(model), "--csv",
                 str(root / "l6.csv"), "--layer", "6"]) == 0
    short = ["--warmup", "1", "--epochs", "1", "--steps", "1"]
    arms = {"full": [], "calib": ["--no-synthetic"], "classes0": ["--classes", "0"],
            "pred": ["--classes", "3", "--predict-labels"]}
    for name, flags in arms.items():
        assert main(["quantize", *common, "--model", str(model),
                     "--out", str(root / name), *short, *flags]) == 0
    for archive in (model, root / "full" / "quantized.fdda"):
        assert main(["eval", *common, "--model", str(archive)]) == 0


def test_every_function_is_reached_by_a_command(tmp_path):
    defined = _defined_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    assert len(defined) > 100
    assert set(ALLOWED) <= set(defined)  # the allow-list names live code
    unreached = sorted(n for n, code in defined.items()
                       if code not in called and n not in ALLOWED)
    assert unreached == []
