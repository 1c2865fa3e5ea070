"""Scenario configuration: JSON-backed dataclasses that validate into the
numeric module types.

Unknown keys are rejected so that typos in config files fail loudly instead
of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .flow import TruncatedHamiltonian
from .lattice import Box, Ellipsoid, PointSet, separable_lattice
from .quantum import HBAR_GABOR, GridSpec, State, gaussian_window, load_state, norm
from .symplectic import QuadraticHamiltonian

__all__ = [
    "ConfigError",
    "GridConfig",
    "WindowConfig",
    "LatticeConfig",
    "EllipsoidConfig",
    "DeformationConfig",
    "FlowRunConfig",
    "CovarianceConfig",
    "TolerancesConfig",
    "ScenarioConfig",
]


class ConfigError(Exception):
    """Invalid scenario configuration."""


def _finite(value) -> float:
    """A config number as a float.  A string, a boolean or any other value
    that is not a real number raises TypeError; NaN, +-inf and an integer
    too large for a float raise ValueError.  The builders report both as a
    config error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ValueError("expected a finite number, got an integer too large for a float") from exc
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _integer(value) -> int:
    """A config count as an int; a non-integral value raises ValueError
    instead of being truncated."""
    if not _finite(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass
class GridConfig:
    N: int = 128
    L: float = 12.0
    hbar: float = HBAR_GABOR


@dataclass
class WindowConfig:
    # either a Gaussian parameter [re, im] with im > 0, or a state file path
    gamma: list = field(default_factory=lambda: [0.0, 1.0])
    file: str | None = None


@dataclass
class LatticeConfig:
    alpha: float = 2.0 ** -0.5
    beta: float = 2.0 ** -0.5
    box: list = field(default_factory=lambda: [[-6.0, 6.0], [-6.0, 6.0]])


@dataclass
class EllipsoidConfig:
    M: list = field(default_factory=lambda: [[1.0, 0.0], [0.0, 1.0]])
    E: object = 0.5  # a number or a list of numbers (sweep)


@dataclass
class DeformationConfig:
    t_values: list = field(default_factory=lambda: [0.0, 0.2, 0.4, 0.6, 0.8])


@dataclass
class FlowRunConfig:
    z0: list = field(default_factory=lambda: [0.5, 0.0])
    t: float = math.pi / 2.0
    dt_max: float = 1e-3
    eps: float = 0.3


@dataclass
class CovarianceConfig:
    # rows (t, q, p); grids: list of N values to compare (defaults to the scenario grid)
    cases: list = field(
        default_factory=lambda: [
            [0.0, 1.0, 0.0],
            [math.pi / 2.0, 1.0, 0.0],
            [0.7, 0.5, 0.5],
        ]
    )
    grids: list | None = None


@dataclass
class TolerancesConfig:
    boundary_tol: float = 1e-9
    eps_max: float = 1.0


@dataclass
class ScenarioConfig:
    """Top-level experiment description; ``ScenarioConfig()`` is the default
    scenario."""

    grid: GridConfig = field(default_factory=GridConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    ellipsoid: EllipsoidConfig = field(default_factory=EllipsoidConfig)
    deformation: DeformationConfig = field(default_factory=DeformationConfig)
    flow: FlowRunConfig = field(default_factory=FlowRunConfig)
    covariance: CovarianceConfig = field(default_factory=CovarianceConfig)
    tolerances: TolerancesConfig = field(default_factory=TolerancesConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        cfg = cls()
        cfg._merge(data)
        return cfg

    def _merge(self, data: dict) -> None:
        """Set ``section.key`` for every ``{section: {key: value}}`` in data;
        unknown sections and keys are rejected."""
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for name, payload in data.items():
            section = getattr(self, name)
            if not isinstance(payload, dict):
                raise ConfigError(f"section {name!r} must be an object")
            allowed = {f.name for f in dataclasses.fields(section)}
            bad = set(payload) - allowed
            if bad:
                raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
            for key, value in payload.items():
                setattr(section, key, value)

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

    # builders: converting to module types is where validation bites
    def build_grid(self, N: int | None = None) -> GridSpec:
        try:
            return GridSpec.centered(
                N=_integer(N if N is not None else self.grid.N),
                L=_finite(self.grid.L),
                hbar=_finite(self.grid.hbar),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc

    def build_window(self, g: GridSpec) -> State:
        try:
            if self.window.file is not None:
                psi, gfile = load_state(self.window.file)
                if gfile != g:
                    raise ConfigError("window file grid does not match scenario grid")
                w = norm(psi, g)
                return State(psi.values / w)
            real, imag = self.window.gamma  # exactly two entries
            return gaussian_window(complex(_finite(real), _finite(imag)), g)
        except ConfigError:
            raise
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid window: {exc}") from exc

    def build_lattice(self) -> PointSet:
        try:
            box = Box.from_pairs([[_finite(v) for v in pair] for pair in self.lattice.box])
            return separable_lattice(_finite(self.lattice.alpha), _finite(self.lattice.beta), box)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid lattice: {exc}") from exc

    def energy_sweep(self) -> list[float]:
        E = self.ellipsoid.E
        values = list(E) if isinstance(E, (list, tuple)) else [E]
        if not values:
            raise ConfigError("ellipsoid energies must not be empty")
        try:
            return [_finite(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid ellipsoid energies: {E!r}") from exc

    def build_ellipsoid(self, E: float | None = None) -> Ellipsoid:
        try:
            M = np.array([[_finite(v) for v in row] for row in self.ellipsoid.M])
            H = QuadraticHamiltonian(M)
            energy = _finite(E) if E is not None else self.energy_sweep()[0]
            return Ellipsoid(H, energy)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid ellipsoid: {exc}") from exc

    def t_values(self) -> list[float]:
        try:
            return [_finite(t) for t in self.deformation.t_values]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid deformation t values: {exc}") from exc

    def build_flow(self) -> tuple[TruncatedHamiltonian, list[float], float, float]:
        """The truncated Hamiltonian of the flow run and its start z0, time t
        and dt_max.  The length of z0 is left to the flow kernel, which checks
        it against the ellipsoid."""
        flow = self.flow
        try:
            th = TruncatedHamiltonian(self.build_ellipsoid(), _finite(flow.eps))
            dt_max = _finite(flow.dt_max)
            if dt_max <= 0.0:
                raise ValueError(f"dt_max must be positive, got {dt_max!r}")
            return th, [_finite(v) for v in flow.z0], _finite(flow.t), dt_max
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid flow: {exc}") from exc

    def tolerance_values(self) -> tuple[float, float]:
        """(boundary_tol, eps_max) as floats, boundary_tol >= 0 and the cap
        eps_max > 0."""
        try:
            boundary_tol = _finite(self.tolerances.boundary_tol)
            eps_max = _finite(self.tolerances.eps_max)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid tolerances: {exc}") from exc
        if not (boundary_tol >= 0.0 and eps_max > 0.0):
            raise ConfigError(f"invalid tolerances: need boundary_tol >= 0 and eps_max > 0, "
                              f"got {boundary_tol!r} and {eps_max!r}")
        return boundary_tol, eps_max

    def covariance_grids(self) -> list[int]:
        """The grid sizes N to compare, the scenario grid's when none is set."""
        if not self.covariance.grids:
            return [self.build_grid().N]
        try:
            return [_integer(n) for n in self.covariance.grids]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid covariance grids: {exc}") from exc

    def covariance_cases(self) -> list[tuple[float, float, float]]:
        """The covariance cases as (t, q, p) triples."""
        try:
            return [(_finite(t), _finite(q), _finite(p)) for t, q, p in self.covariance.cases]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid covariance cases: {exc}") from exc
