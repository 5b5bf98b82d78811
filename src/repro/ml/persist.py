"""Model persistence: serialize trained estimators to plain JSON.

All four model types round-trip losslessly (trees store their node
arrays, the MLP its weights, linear models their coefficients), so a CF
estimator trained once on the 2,000-module sweep can be reused across
sessions and shipped alongside a flow — no pickle, no code execution on
load.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["model_to_dict", "model_from_dict"]

_FORMAT = 1


def _arr(a: np.ndarray | None) -> list | None:
    return None if a is None else np.asarray(a).tolist()


# ----------------------------------------------------------------- trees


_NODE_KEYS = ("feature", "threshold", "value", "left", "right")


def _dt_to_dict(model: DecisionTreeRegressor) -> dict[str, Any]:
    if model._flat is None:
        raise ValueError("cannot serialize an unfitted tree")
    feats, thrs, lefts, rights, values = model._flat
    columns = (feats, thrs, values, lefts, rights)
    return {
        "params": {
            "max_depth": model.max_depth,
            "min_samples_leaf": model.min_samples_leaf,
            "min_samples_split": model.min_samples_split,
            "max_features": model.max_features,
            "seed": model.seed,
        },
        "n_features": model._n_features,
        "nodes": [
            dict(zip(_NODE_KEYS, node))
            for node in zip(*(column.tolist() for column in columns))
        ],
        "importances": _arr(model.feature_importances_),
    }


def _dt_from_dict(data: dict[str, Any]) -> DecisionTreeRegressor:
    model = DecisionTreeRegressor(**data["params"])
    nodes = data["nodes"]
    feats, thrs, values, lefts, rights = (
        np.asarray([node[key] for node in nodes], dtype=dtype)
        for key, dtype in zip(_NODE_KEYS, (np.int32, float, float, np.int32, np.int32))
    )
    model._flat = (feats, thrs, lefts, rights, values)
    model._n_features = int(data["n_features"])
    model.feature_importances_ = (
        None if data["importances"] is None else np.asarray(data["importances"])
    )
    return model


# ----------------------------------------------------------------- dispatch


def model_to_dict(model: Any) -> dict[str, Any]:
    """Serialize any supported regressor to a JSON-compatible dict."""
    if isinstance(model, LinearRegression):
        if model.coef_ is None:
            raise ValueError("cannot serialize an unfitted model")
        payload = {
            "ridge": model.ridge,
            "coef": _arr(model.coef_),
            "intercept": model.intercept_,
            "mu": _arr(model._mu),
            "sigma": _arr(model._sigma),
        }
        kind = "linear"
    elif isinstance(model, DecisionTreeRegressor):
        payload = _dt_to_dict(model)
        kind = "tree"
    elif isinstance(model, RandomForestRegressor):
        if not model.trees_:
            raise ValueError("cannot serialize an unfitted forest")
        payload = {
            "params": {
                "n_estimators": model.n_estimators,
                "max_depth": model.max_depth,
                "max_features": model.max_features,
                "min_samples_leaf": model.min_samples_leaf,
                "seed": model.seed,
            },
            "trees": [_dt_to_dict(t) for t in model.trees_],
            "importances": _arr(model.feature_importances_),
        }
        kind = "forest"
    elif isinstance(model, GradientBoostingRegressor):
        if not model.trees_:
            raise ValueError("cannot serialize an unfitted booster")
        payload = {
            "params": {
                "n_estimators": model.n_estimators,
                "learning_rate": model.learning_rate,
                "max_depth": model.max_depth,
                "subsample": model.subsample,
                "seed": model.seed,
            },
            "base": model.base_,
            "trees": [_dt_to_dict(t) for t in model.trees_],
        }
        kind = "gbrt"
    elif isinstance(model, MLPRegressor):
        if model._params is None:
            raise ValueError("cannot serialize an unfitted MLP")
        payload = {
            "params": {
                "hidden": model.hidden,
                "epochs": model.epochs,
                "batch_size": model.batch_size,
                "lr": model.lr,
                "seed": model.seed,
            },
            "weights": {k: _arr(v) for k, v in model._params.items()},
            "x_mu": _arr(model._x_mu),
            "x_sd": _arr(model._x_sd),
            "y_mu": model._y_mu,
            "y_sd": model._y_sd,
        }
        kind = "mlp"
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return {"format": _FORMAT, "kind": kind, "payload": payload}


def model_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a regressor serialized by :func:`model_to_dict`."""
    if data.get("format") != _FORMAT:
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    kind = data["kind"]
    payload = data["payload"]
    if kind == "linear":
        model = LinearRegression(ridge=payload["ridge"])
        model.coef_ = np.asarray(payload["coef"])
        model.intercept_ = float(payload["intercept"])
        model._mu = np.asarray(payload["mu"])
        model._sigma = np.asarray(payload["sigma"])
        return model
    if kind == "tree":
        return _dt_from_dict(payload)
    if kind == "forest":
        model = RandomForestRegressor(**payload["params"])
        model.trees_ = [_dt_from_dict(t) for t in payload["trees"]]
        model.feature_importances_ = (
            None
            if payload["importances"] is None
            else np.asarray(payload["importances"])
        )
        return model
    if kind == "gbrt":
        model = GradientBoostingRegressor(**payload["params"])
        model.base_ = float(payload["base"])
        model.trees_ = [_dt_from_dict(t) for t in payload["trees"]]
        return model
    if kind == "mlp":
        p = payload["params"]
        model = MLPRegressor(**p)
        model._params = {k: np.asarray(v) for k, v in payload["weights"].items()}
        model._x_mu = np.asarray(payload["x_mu"])
        model._x_sd = np.asarray(payload["x_sd"])
        model._y_mu = float(payload["y_mu"])
        model._y_sd = float(payload["y_sd"])
        return model
    raise ValueError(f"unknown model kind {kind!r}")
