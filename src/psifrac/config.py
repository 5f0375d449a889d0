"""Plain-text configuration: one `key = value` per line.

Unknown keys are hard errors so that typos cannot silently fall back to
defaults.  Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .core import ProblemSpec, make_spec

__all__ = ["CONFIG_DEFAULTS", "parse_config_text", "load_config", "spec_from_config"]

# key -> (type, default); the catalog solve problem is the default setup
CONFIG_DEFAULTS: dict[str, tuple[type, object]] = {
    "alpha": (float, 1.0),
    "beta": (float, 0.5),
    "psi": (str, "identity"),
    "psi_k": (float, 1.0),
    "nu": (float, 0.5),
    "lambda": (float, 50.0),
    "T": (float, 1.0),
    "grid_n": (int, 257),
    "h": (str, "sqrt"),
    "m": (str, "constant"),
    "zeta0": (float, 1.0),
    "zeta_inf": (float, 1.0),
    "r": (float, 0.8),
    "tol": (float, 1e-10),
    "max_iter": (int, 400),
}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a typed dict; unknown keys raise."""
    values = {k: d for k, (_, d) in CONFIG_DEFAULTS.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_DEFAULTS:
            known = ", ".join(sorted(CONFIG_DEFAULTS))
            raise ValueError(f"config line {lineno}: unknown key {key!r} (known keys: {known})")
        typ = CONFIG_DEFAULTS[key][0]
        try:
            values[key] = typ(val)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: cannot parse {val!r} as {typ.__name__} for key {key!r}"
            ) from None
    return values


def load_config(path: str | Path | None) -> dict:
    """Defaults, optionally overlaid with a config file; an unreadable file is a ValueError."""
    if path is None:
        return {k: d for k, (_, d) in CONFIG_DEFAULTS.items()}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {str(path)!r}: {exc.strerror}") from None
    return parse_config_text(text)


def spec_from_config(values: dict) -> ProblemSpec:
    return make_spec(
        alpha=values["alpha"],
        beta=values["beta"],
        psi=values["psi"],
        psi_k=values["psi_k"],
        nu=values["nu"],
        lam=values["lambda"],
        T=values["T"],
        grid_n=values["grid_n"],
        h=values["h"],
        m=values["m"],
        zeta0=values["zeta0"],
        zeta_inf=values["zeta_inf"],
    )
