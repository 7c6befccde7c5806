import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faultkit import load_model, load_specs, load_tfpg, load_node_map

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args` in a fresh interpreter, from the repository
    root, with this checkout's `src/` first on the module path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def bench_module(name: str):
    """perfbench/<name>.py, loaded from its file: perfbench is no package.
    The module is entered in sys.modules, where a dataclass looks it up."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_json(name: str):
    with open(CORPUS / name, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def battery():
    return load_model(CORPUS / "battery.json")


@pytest.fixture(scope="session")
def sensor_delay():
    return load_model(CORPUS / "sensor_delay.json")


@pytest.fixture(scope="session")
def intermittent():
    return load_model(CORPUS / "intermittent.json")


@pytest.fixture(scope="session")
def fully_obs():
    return load_model(CORPUS / "fully_obs.json")


@pytest.fixture(scope="session")
def unobservable():
    return load_model(CORPUS / "unobservable.json")


@pytest.fixture(scope="session")
def sensor_specs():
    return {s.name: s for s in load_specs(CORPUS / "alarms_sensor.json")}


@pytest.fixture(scope="session")
def intermittent_specs():
    return {s.name: s for s in load_specs(CORPUS / "alarms_intermittent.json")}


@pytest.fixture(scope="session")
def tfpg_power():
    return load_tfpg(CORPUS / "tfpg_power.json")


@pytest.fixture(scope="session")
def tfpg_modegap():
    return load_tfpg(CORPUS / "tfpg_modegap.json")


@pytest.fixture(scope="session")
def tfpg_battery():
    return load_tfpg(CORPUS / "tfpg_battery.json")


@pytest.fixture(scope="session")
def battery_map():
    return load_node_map(CORPUS / "battery_map.json")
