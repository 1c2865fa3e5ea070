"""Scenario configuration: one table of 16 fields, each converted and checked
when a file or an override sets it, whichever subcommand then runs.

Unknown sections and keys are rejected, and a value of the wrong kind fails
at load, so that typos in config files fail loudly instead of silently
running defaults.  The module types' own checks on single fields (a
power-of-two N, Im Gamma > 0, a positive definite M, a box with
lower < upper) run at load too; building the lattice and reading the window
file wait for the builders, which report their failures as config errors.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from types import SimpleNamespace

import numpy as np

from .flow import TruncatedHamiltonian
from .lattice import Box, Ellipsoid, PointSet, separable_lattice
from .quantum import (
    GridSpec,
    State,
    gaussian_parameter,
    gaussian_window,
    load_state,
    norm,
)
from .symplectic import QuadraticHamiltonian

__all__ = ["ConfigError", "ScenarioConfig"]


class ConfigError(Exception):
    """Invalid scenario configuration."""


# The kinds: each converts a JSON value or raises TypeError, ValueError or
# OverflowError.  A number is a JSON number, never a string or a boolean.


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)  # OverflowError for an integer too large for a float
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _positive(value) -> float:
    x = _real(value)
    if x <= 0.0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return x


def _count(value) -> int:
    """An integral number as an int; a fraction is rejected, not truncated."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _list(kind, size: int | None = None):
    """The kind of a JSON array of ``kind`` values, of exactly ``size``
    entries when size is given."""

    def convert(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        if size is not None and len(value) != size:
            raise ValueError(f"expected {size} entries, got {value!r}")
        return [kind(v) for v in value]

    return convert


def _optional(kind):
    """The kind of null or a ``kind`` value."""
    return lambda value: None if value is None else kind(value)


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a path, got {value!r}")
    return value


def _grid_size(value) -> int:
    """A count that a grid accepts as N: a power of two >= 16."""
    N = _count(value)
    GridSpec.centered(N)
    return N


def _gamma(value) -> complex:
    """A Gaussian window parameter [re, im] with im > 0."""
    return gaussian_parameter(complex(*_list(_real, 2)(value)))


def _hamiltonian_matrix(value) -> np.ndarray:
    """A 2n x 2n symmetric positive definite M, as rows of reals."""
    M = np.array(_list(_list(_real))(value))
    QuadraticHamiltonian(M)
    return M


def _box(value) -> list:
    """Box pairs [lower, upper], each with lower < upper."""
    pairs = _list(_list(_real, 2))(value)
    Box.from_pairs(pairs)
    return pairs


def _energies(value) -> list[float]:
    """One energy or a nonempty list of them, as a list."""
    if not isinstance(value, list):
        return [_positive(value)]
    if not value:
        raise ValueError("expected at least one energy")
    return [_positive(v) for v in value]


# section -> key -> (kind, default)
_FIELDS = {
    "grid": {"N": (_grid_size, 128), "L": (_positive, 12.0)},
    # the Gaussian parameter is not read when a state file is given
    "window": {
        "gamma": (_gamma, [0.0, 1.0]),
        "file": (_optional(_path), None),
    },
    "lattice": {
        "alpha": (_positive, 2.0 ** -0.5),
        "beta": (_positive, 2.0 ** -0.5),
        "box": (_box, [[-6.0, 6.0], [-6.0, 6.0]]),
    },
    # E: one energy, or a list of them for a sweep
    "ellipsoid": {
        "M": (_hamiltonian_matrix, [[1.0, 0.0], [0.0, 1.0]]),
        "E": (_energies, 0.5),
    },
    "deformation": {"t_values": (_list(_real), [0.0, 0.2, 0.4, 0.6, 0.8])},
    "flow": {
        "z0": (_list(_real), [0.5, 0.0]),
        "t": (_real, math.pi / 2.0),
        "dt_max": (_positive, 1e-3),
        "eps": (_positive, 0.3),
    },
    # rows (t, q, p); grids: the N values to compare, the scenario grid's if null
    "covariance": {
        "cases": (_list(_list(_real, 3)),
                  [[0.0, 1.0, 0.0], [math.pi / 2.0, 1.0, 0.0], [0.7, 0.5, 0.5]]),
        "grids": (_optional(_list(_grid_size)), None),
    },
}


@contextlib.contextmanager
def _rejected_as(what: str):
    """Report a module type's own check on converted values, or a window file
    that cannot be read, as a config error."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


class ScenarioConfig:
    """Top-level experiment description; ``ScenarioConfig()`` is the default
    scenario.  Each section is a namespace of converted values, for example
    ``cfg.ellipsoid.E``, a list of floats."""

    def __init__(self) -> None:
        for section in _FIELDS:
            setattr(self, section, SimpleNamespace())
        self._merge({section: {key: default for key, (_, default) in fields.items()}
                     for section, fields in _FIELDS.items()})

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        cfg = cls()
        cfg._merge(data)
        return cfg

    def _merge(self, data: dict) -> None:
        """Convert and set ``section.key`` for every ``{section: {key: value}}``
        in data; unknown sections and keys and malformed values are rejected."""
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for name, payload in data.items():
            if not isinstance(payload, dict):
                raise ConfigError(f"section {name!r} must be an object")
            fields = _FIELDS[name]
            bad = set(payload) - set(fields)
            if bad:
                raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
            section = getattr(self, name)
            for key, value in payload.items():
                try:
                    setattr(section, key, fields[key][0](value))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"invalid {name}.{key}: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def apply_overrides(self, overrides: list[str]) -> None:
        """Apply dotted-path overrides like grid.N=512 (values parsed as JSON)."""
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must look like section.key=value, got {item!r}")
            path, raw = item.split("=", 1)
            parts = path.split(".")
            if len(parts) != 2:
                raise ConfigError(f"override path must be section.key, got {path!r}")
            try:
                value = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"override value is not valid JSON: {raw!r}") from exc
            self._merge({parts[0]: {parts[1]: value}})

    def build_grid(self, N: int | None = None) -> GridSpec:
        with _rejected_as("grid"):
            return GridSpec.centered(N=self.grid.N if N is None else N, L=self.grid.L)

    def build_window(self, g: GridSpec) -> State:
        with _rejected_as("window"):
            if self.window.file is None:
                return gaussian_window(self.window.gamma, g)
            psi, gfile = load_state(self.window.file)
            if gfile != g:
                raise ConfigError("window file grid does not match scenario grid")
            return State(psi.values / norm(psi, g))

    def build_lattice(self) -> PointSet:
        with _rejected_as("lattice"):
            return separable_lattice(self.lattice.alpha, self.lattice.beta,
                                     Box.from_pairs(self.lattice.box))

    def build_ellipsoid(self, E: float | None = None) -> Ellipsoid:
        """The ellipsoid at energy E, the first of ``ellipsoid.E`` by default."""
        with _rejected_as("ellipsoid"):
            return Ellipsoid(QuadraticHamiltonian(self.ellipsoid.M),
                             self.ellipsoid.E[0] if E is None else E)

    def build_flow(self) -> TruncatedHamiltonian:
        """The truncated Hamiltonian of the flow run, at the one energy of
        ``ellipsoid.E``: a list of several is a config error.  The length of
        ``flow.z0`` is left to the flow kernel, which checks it against the
        ellipsoid."""
        if len(self.ellipsoid.E) > 1:
            raise ConfigError(f"flow runs one energy, ellipsoid.E has {len(self.ellipsoid.E)}")
        return TruncatedHamiltonian(self.build_ellipsoid(), self.flow.eps)
