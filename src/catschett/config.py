"""Check bounds and series limits, read from one JSON config file."""

import copy
import json
import os
from functools import lru_cache
from importlib import resources

ENV_VAR = "CATSCHETT_CONFIG"


def _defaults() -> dict:
    text = resources.files("catschett").joinpath("config_defaults.json").read_text()
    return json.loads(text)


def _require_int(value, where: str) -> int:
    # bool is an int subclass, but true/false is never a bound
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict:
    """Defaults overlaid with the file at ``path``; a malformed overlay raises ValueError.

    Every size and order of the merged table must lie in 1..enumeration_bound,
    so a lowered bound also holds the packaged defaults.
    """
    cfg = _defaults()
    where = f"{ENV_VAR} file {path}" if path else "packaged config_defaults.json"
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ValueError(f"{where}: {exc.strerror}") from None
        if not isinstance(user, dict):
            raise ValueError(f"{where}: expected a JSON object")
        unknown = sorted(set(user) - {"enumeration_bound", "checks"})
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        if "enumeration_bound" in user:
            cfg["enumeration_bound"] = _require_int(
                user["enumeration_bound"], f"{where}: enumeration_bound")
        checks = user.get("checks", {})
        if not isinstance(checks, dict):
            raise ValueError(f"{where}: 'checks' must be a JSON object")
        for name, params in checks.items():
            defaults = cfg["checks"].get(name)
            if defaults is None:
                raise ValueError(f"{where}: unknown check {name!r}")
            if not isinstance(params, dict):
                raise ValueError(f"{where}: parameters of {name!r} must be a JSON object")
            for key, value in params.items():
                if key not in defaults:
                    raise ValueError(f"{where}: check {name!r} takes no parameter {key!r}")
                defaults[key] = _require_int(value, f"{where}: {name}.{key}")
    for name, params in cfg["checks"].items():
        for key, value in params.items():
            require_bounded(f"{where}: {name}.{key}", value, bound=cfg["enumeration_bound"])
    return cfg


def _active() -> dict:
    # the cached dict itself: read it, never hand it out
    return _load(os.environ.get(ENV_VAR) or None)


def load_config() -> dict:
    """A copy of the active config: packaged defaults overlaid with the CATSCHETT_CONFIG file."""
    return copy.deepcopy(_active())


def enumeration_bound() -> int:
    """Hard cap on series truncation order and table sizes."""
    return _active()["enumeration_bound"]


def require_bounded(what: str, value: int, low: int = 1, bound: int | None = None) -> int:
    """``value`` if it lies in low..bound, the enumeration bound by default; else ValueError.

    The one range rule for every size and order: check overrides, the command
    line's sizes, series orders and the config table itself.
    """
    if bound is None:
        bound = enumeration_bound()
    if not low <= value <= bound:
        raise ValueError(f"{what} must lie in {low}..{bound} (the enumeration bound), got {value}")
    return value


def check_params(name: str) -> dict:
    """Default parameters (n or order) for one registered check."""
    params = _active()["checks"].get(name)
    if params is None:
        raise KeyError(f"no configured bounds for check: {name}")
    return dict(params)
