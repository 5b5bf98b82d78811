"""Pinned digests of the Table II tree and forest fits.

Each digest is the sha256 of ``json.dumps(model_to_dict(model),
sort_keys=True)`` for one DT/RF fit on the estimator-training inputs:
the seed-0 400-module sweep, ``balance_dataset(seed=0)``, the seed-0
80/20 split and 60-tree forests.  One digest covers the node arrays,
the importances and the saved-JSON format, so any change to how trees
are grown or stored must leave these bitwise unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.dataset.balance import balance_dataset
from repro.dataset.generate import generate_dataset
from repro.device.parts import xc7z020
from repro.estimator.cf_estimator import CFEstimator
from repro.ml.forest import RandomForestRegressor
from repro.ml.persist import model_to_dict
from repro.ml.split import train_test_split
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.serialization import dump_json

GOLDEN = {
    ("dt", "classical"): (
        "b5ad687325092d0fd905d1c4dab4e722"
        "f0d36379d4a03d53e101df7ec70c4fd2"
    ),
    ("rf", "classical"): (
        "01aee57e5c64d5ac8f26cb0abd653a62"
        "04710ec280a743d7dbecd8503b3b0bb5"
    ),
    ("dt", "classical_placement"): (
        "5cd4eed8a346c4fdea69465428f8bda9"
        "bfce09544b01c403c9d348c6763a5073"
    ),
    ("rf", "classical_placement"): (
        "086e79b3b4d0126d93a7ccde44ccb44a"
        "b80eaa11aa2fbbad7c46abaa653a6fb9"
    ),
    ("dt", "additional"): (
        "42879ecdd8acc81d5a050059cc0193e6"
        "9e99bd5378c89b9ae47a6d3e486e530d"
    ),
    ("rf", "additional"): (
        "aa64d15dac7e00189273b6f03a3620c0"
        "63a1b43ab93ec45081febc8db7330ef9"
    ),
    ("dt", "all"): (
        "2a27074f2f0f1596945fe9140c4f9e5a"
        "0e7295ed934d0c6800d44b553067976f"
    ),
    ("rf", "all"): (
        "c2712696f7a52a63791c2a958840c304"
        "f05b0c9fabeac52380569425460b861c"
    ),
}

#: sha256 of the ``dump_json`` file of a depth-6 tree and an 8-tree forest.
SAVED_DT = "a41b19f176c34b50d7b9f59d033f94f417d69985e887bc3bd763c49ee03b3277"
SAVED_RF = "42a340c62137d1f2ac487ef9eaeaa896dbd51ba6d56b3055afaf5b74e407ce7b"


@pytest.fixture(scope="module")
def train_records():
    records, _ = generate_dataset(
        400, 0, xc7z020(), start=0.9, step=0.02, workers=1
    )
    balanced = balance_dataset(records, seed=0)
    train, _ = train_test_split(len(balanced), test_fraction=0.2, seed=0)
    return [balanced[i] for i in train]


def model_digest(model) -> str:
    text = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind,feature_set", sorted(GOLDEN))
def test_table2_fit_digest(train_records, kind, feature_set):
    est = CFEstimator(kind=kind, feature_set=feature_set, seed=0, rf_trees=60)
    est.fit(train_records)
    assert model_digest(est.model) == GOLDEN[(kind, feature_set)]


def _saved_bytes(model, path) -> str:
    dump_json(model_to_dict(model), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_saved_json_bytes(tmp_path):
    # The on-disk format of a tree and of a small forest, byte for byte.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.normal(size=120)
    tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
    forest = RandomForestRegressor(n_estimators=8, seed=1).fit(X, y)
    assert _saved_bytes(tree, tmp_path / "dt.json") == SAVED_DT
    assert _saved_bytes(forest, tmp_path / "rf.json") == SAVED_RF
