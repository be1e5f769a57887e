"""Physical deployment scenarios: geometry, pathloss, and link synthesis.

Nodes are numbered 0 (transmitter), 1..L (reflecting surfaces), L+1
(receiver).  Each surface is a uniform linear array of N elements with
spacing xi; the carrier wavelength is lam.  A line-of-sight link carries a
deterministic distance phase and per-element steering factors; a
non-line-of-sight link carries an i.i.d. CN(0, 1) fading factor per element
pair.  Either way the amplitude follows a log-distance pathloss law.

A Scenario holds one deployment by value; load_scenario reads it from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import LinkChannelGraph, RadioParams
from .config import (ConfigError, ExperimentConfig, Option, _grids_for, boolean,
                     check_known_keys, count, finite, fraction, int_list, one_of, pair,
                     parse_config_file)

DEFAULT_SPACING_M = 0.03
DEFAULT_WAVELENGTH_M = 0.06


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def pathloss_amplitude(distance_m: float, los: bool) -> float:
    """Amplitude (not power) attenuation at the given distance.

    Log-distance laws with a 30 dB / exponent-2.2 intercept for
    line-of-sight and 32.6 dB / exponent-3.67 otherwise.
    """
    if not (distance_m > 0):
        raise ValueError(f"distance must be positive, got {distance_m}")
    if los:
        return 10.0 ** (-(30.0 + 22.0 * math.log10(distance_m)) / 20.0)
    return 10.0 ** (-(32.6 + 36.7 * math.log10(distance_m)) / 20.0)


@dataclass(frozen=True)
class Geometry:
    """2-D node coordinates in meters, row i = node i.

    positions has L+2 rows: transmitter, the L surfaces in order, receiver.
    """

    positions: np.ndarray
    spacing_m: float = DEFAULT_SPACING_M
    wavelength_m: float = DEFAULT_WAVELENGTH_M

    def __post_init__(self):
        p = np.array(self.positions, dtype=np.float64, copy=True)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 2:
            raise ValueError(f"positions must be (L+2, 2) with L >= 0, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        diff = p[:, None, :] - p[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(d, np.inf)
        if d.min() <= 0:
            raise ValueError("all pairwise node distances must be positive")
        if not (self.spacing_m > 0 and self.wavelength_m > 0):
            raise ValueError("element spacing and wavelength must be positive")
        p.flags.writeable = False
        object.__setattr__(self, "positions", p)

    @property
    def num_surfaces(self) -> int:
        return self.positions.shape[0] - 2

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    def distance(self, i: int, j: int) -> float:
        return float(np.hypot(*(self.positions[i] - self.positions[j])))

    def bearing(self, i: int, j: int) -> float:
        """Planar bearing of node j as seen from node i, in [0, 2*pi)."""
        dx, dy = self.positions[j] - self.positions[i]
        return float(math.atan2(dy, dx) % (2.0 * math.pi))


@dataclass(frozen=True)
class AngleTable:
    """Link angles for every ordered node pair, in radians.

    rad[i, j] is the angle at node i of its link with node j: both the angle
    of departure from i toward j and the angle of arrival at i from j.  Only
    entries involving at least one surface are ever read.
    """

    rad: np.ndarray

    def __post_init__(self):
        a = np.array(self.rad, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("the angle table must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("angles must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "rad", a)

    @classmethod
    def from_geometry(cls, geometry: Geometry) -> "AngleTable":
        """Planar bearings: rad[i, j] is the bearing of node j seen from node i."""
        n = geometry.num_nodes
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    a[i, j] = geometry.bearing(i, j)
        return cls(a)

    @classmethod
    def fixed(cls, num_nodes: int, angle_rad: float) -> "AngleTable":
        """Every link angle set to the same constant."""
        return cls(np.full((num_nodes, num_nodes), float(angle_rad)))


@dataclass(frozen=True)
class PropagationMap:
    """Which node pairs are line-of-sight."""

    los: np.ndarray

    def __post_init__(self):
        a = np.array(self.los, dtype=bool, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("adjacency diagonal must be zero")
        a.flags.writeable = False
        object.__setattr__(self, "los", a)

    @property
    def num_nodes(self) -> int:
        return self.los.shape[0]

    def is_los(self, i: int, j: int) -> bool:
        return bool(self.los[i, j])


def sample_propagation(eta: float, num_surfaces: int, rng) -> PropagationMap:
    """Random propagation map of L surfaces: the relay chain tx -> surface 1
    -> ... -> surface L -> rx is always LoS, every other pair is LoS
    independently with probability eta.  One draw is taken for every pair,
    chain pairs included, so eta = 0 gives the chain alone and eta = 1 every
    pair."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    num_nodes = num_surfaces + 2
    a = np.zeros((num_nodes, num_nodes), dtype=bool)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            a[i, j] = a[j, i] = rng.random() < eta or j == i + 1
    return PropagationMap(a)


def load_adjacency(path) -> PropagationMap:
    """Load a 0/1 adjacency grid from a text file."""
    with open(path) as f:
        text = f.read()
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append([int(tok) for tok in line.split()])
    if any(v not in (0, 1) for row in rows for v in row):
        raise ValueError("adjacency entries must be 0 or 1")
    return PropagationMap(np.asarray(rows, dtype=bool))


def steering_vector(num_elements: int, angle_rad: float, spacing_m: float,
                    wavelength_m: float) -> np.ndarray:
    """Per-element phase ramp of a uniform linear array:
    exp(-j * 2*pi * spacing * (n - 1) * cos(angle) / wavelength), n = 1..N."""
    n = np.arange(num_elements)
    return np.exp(-2j * math.pi * spacing_m * n * math.cos(angle_rad) / wavelength_m)


def _check_pair(i: int, j: int, num_nodes: int):
    if not (0 <= i < num_nodes and 0 <= j < num_nodes) or i == j:
        raise ValueError(f"bad node pair ({i}, {j}) for {num_nodes} nodes")


def _los_phasor(geometry: Geometry, i: int, j: int) -> complex:
    """Line-of-sight factor common to every element pair of i -> j:
    sqrt(pathloss) * exp(-j * 2*pi * d / wavelength)."""
    d = geometry.distance(i, j)
    return pathloss_amplitude(d, los=True) * np.exp(-2j * math.pi * d / geometry.wavelength_m)


def _los_hop_factors(geometry: Geometry, angles: AngleTable, i: int, j: int,
                     num_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one factors (u, v) of the line-of-sight surface i -> surface j
    matrix outer(u, v): u is the departure ramp at surface i times the common
    factor, v the arrival ramp at surface j."""
    xi, lam = geometry.spacing_m, geometry.wavelength_m
    dep = steering_vector(num_elements, angles.rad[i, j], xi, lam)
    arr = steering_vector(num_elements, angles.rad[j, i], xi, lam)
    return _los_phasor(geometry, i, j) * dep, arr


def los_link_channels(geometry: Geometry, angles: AngleTable, i: int, j: int,
                      num_elements: int) -> np.ndarray:
    """Deterministic line-of-sight channel for the ordered pair i -> j.

    The pair must involve at least one surface.  Returns a length-N vector
    when exactly one endpoint is a surface (transmitter -> elements or
    elements -> receiver) and an (N, N) matrix when both are surfaces.  The
    common factor is sqrt(pathloss) * exp(-j * 2*pi * d / wavelength); each
    surface endpoint contributes a steering ramp (departure angle at the
    source surface, arrival angle at the destination surface).
    """
    nn = geometry.num_nodes
    _check_pair(i, j, nn)
    tx_node, rx_node = 0, nn - 1
    if {i, j} == {tx_node, rx_node}:
        raise ValueError("pair must involve at least one surface")
    xi, lam = geometry.spacing_m, geometry.wavelength_m
    if i == tx_node:
        # arrival ramp at surface j, angle of arrival from the transmitter
        ramp = steering_vector(num_elements, angles.rad[j, i], xi, lam)
    elif j == rx_node:
        # departure ramp at surface i toward the receiver
        ramp = steering_vector(num_elements, angles.rad[i, j], xi, lam)
    else:
        return np.outer(*_los_hop_factors(geometry, angles, i, j, num_elements))
    return _los_phasor(geometry, i, j) * ramp


def nlos_link_channels(geometry: Geometry, i: int, j: int, num_elements: int,
                       rng) -> np.ndarray | complex:
    """Random non-line-of-sight channel for the ordered pair i -> j.

    Entries are sqrt(pathloss) * zeta with zeta ~ CN(0, 1) i.i.d.  Shapes
    follow los_link_channels; the direct transmitter-receiver pair is allowed
    here and yields a scalar.
    """
    nn = geometry.num_nodes
    _check_pair(i, j, nn)
    tx_node, rx_node = 0, nn - 1
    amp = pathloss_amplitude(geometry.distance(i, j), los=False)
    if {i, j} == {tx_node, rx_node}:
        shape = ()
    elif i == tx_node or j == rx_node:
        shape = (num_elements,)
    else:
        shape = (num_elements, num_elements)
    zeta = (rng.normal(0.0, math.sqrt(0.5), size=shape)
            + 1j * rng.normal(0.0, math.sqrt(0.5), size=shape))
    out = amp * zeta
    return complex(out) if shape == () else out


def build_link_graph(geometry: Geometry, angles: AngleTable,
                     propagation: PropagationMap, num_elements: int, rng,
                     zero_nlos: bool = False) -> LinkChannelGraph:
    """Assemble the full link graph of a scenario.

    Links are generated in a fixed order (transmitter -> surfaces by index,
    surface pairs in lexicographic order, surfaces -> receiver by index,
    direct link last) so a given rng seed always yields the same channels.
    With zero_nlos=True, non-line-of-sight links are exactly zero instead of
    random fading.  A line-of-sight surface pair is passed to the graph as
    its rank-one factors, so batch evaluation applies that hop in O(B*N).
    """
    L = geometry.num_surfaces
    nn = geometry.num_nodes
    if propagation.num_nodes != nn:
        raise ValueError(
            f"propagation map has {propagation.num_nodes} nodes, geometry has {nn}"
        )
    if L < 1:
        raise ValueError("need at least one surface")
    n = int(num_elements)
    if n < 1:
        raise ValueError("need at least one element per surface")
    rx_node = nn - 1

    def make(i, j, shape):
        if propagation.is_los(i, j):
            if len(shape) == 2:
                return _los_hop_factors(geometry, angles, i, j, n)
            return los_link_channels(geometry, angles, i, j, n)
        if zero_nlos:
            return np.zeros(shape, dtype=np.complex128)
        return nlos_link_channels(geometry, i, j, n, rng)

    tx_to_irs = tuple(make(0, ell, (n,)) for ell in range(1, L + 1))
    irs_to_irs = {}
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            irs_to_irs[(i - 1, j - 1)] = make(i, j, (n, n))
    irs_to_rx = tuple(make(ell, rx_node, (n,)) for ell in range(1, L + 1))
    if propagation.is_los(0, rx_node):
        direct = _los_phasor(geometry, 0, rx_node)
    elif zero_nlos:
        direct = 0.0 + 0.0j
    else:
        direct = nlos_link_channels(geometry, 0, rx_node, n, rng)
    return LinkChannelGraph(tx_to_irs=tx_to_irs, irs_to_rx=irs_to_rx,
                            irs_to_irs=irs_to_irs, tx_to_rx=direct)


def place_random(num_surfaces: int, rng) -> Geometry:
    """Random staircase placement in the square [5, 95]^2, transmitter at
    (5, 5) and receiver at (95, 95).

    Surface ell (1-based) is uniform in [5 + 90*(ell-1)/L, 5 + 90*ell/L]^2,
    so successive surfaces progress from the transmitter corner toward the
    receiver corner.
    """
    L = int(num_surfaces)
    if L < 1:
        raise ValueError("need at least one surface")
    pos = [(5.0, 5.0)]
    for ell in range(1, L + 1):
        lo = 5.0 + 90.0 * (ell - 1) / L
        hi = 5.0 + 90.0 * ell / L
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        pos.append((x, y))
    pos.append((95.0, 95.0))
    return Geometry(np.asarray(pos, dtype=float))


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    """One deployment, by value.

    geometry None means a random staircase placement per trial (place_random),
    fixed_angle_rad None means angles from node bearings, and propagation is
    either a line-of-sight probability eta for every pair off the relay chain
    or a fixed PropagationMap.
    """

    num_surfaces: int
    num_elements: int
    grids: tuple
    geometry: Geometry | None
    propagation: float | PropagationMap
    fixed_angle_rad: float | None = None
    zero_nlos: bool = False
    params: RadioParams = field(default_factory=RadioParams)
    spacing_m: float = DEFAULT_SPACING_M
    wavelength_m: float = DEFAULT_WAVELENGTH_M


def packaged_scenario_path(name: str) -> Path:
    path = Path(str(resources.files("blindbeam.data").joinpath(f"{name}.cfg")))
    if not path.exists():
        raise ConfigError(f"no packaged scenario named {name!r}")
    return path


def default_scenario_path() -> Path:
    """The packaged double-surface corridor scenario."""
    return packaged_scenario_path("double_irs")


def _radio_params(o) -> RadioParams:
    """Transmit and noise power from the power_dbm and noise_dbm rows of `o`."""
    try:
        return RadioParams(transmit_power_w=dbm_to_watts(o.power_dbm),
                           noise_power_w=dbm_to_watts(o.noise_dbm))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except OverflowError as e:
        raise ConfigError(f"power_dbm {o.power_dbm:g} or noise_dbm {o.noise_dbm:g} is too "
                          "large for a power in watts") from e


# chain_only and all_los are the extremes of the eta model
_NAMED_ETA = {"chain_only": "eta:0", "all_los": "eta:1"}


def _fixed_angle(text: str, key: str) -> float | None:
    """None for bearing angles, else the fixed angle in radians."""
    if text == "bearing":
        return None
    if not text.startswith(("fixed_deg:", "fixed_rad:")):
        raise ConfigError(f"unknown angles mode {text!r}")
    try:
        angle = finite(text.split(":", 1)[1], key)
    except ConfigError:
        raise ConfigError(f"angles {text!r} needs a finite number after the colon") from None
    return math.radians(angle) if text.startswith("fixed_deg:") else angle


def _propagation(text: str, key: str) -> float | PropagationMap:
    """An eta, or the propagation map of an adjacency file."""
    text = _NAMED_ETA.get(text, text)
    if text.startswith("eta:"):
        return fraction(text.split(":", 1)[1], "eta")
    if text.startswith("adjacency:"):
        try:
            return load_adjacency(text.split(":", 1)[1])
        except (OSError, ValueError) as e:
            raise ConfigError(f"propagation {text!r}: {e}") from e
    raise ConfigError(f"unknown propagation mode {text!r}")


# rows shared with the scaling subcommand's --config file
POWER_DBM = Option("power_dbm", (), finite, "30", "transmit power in dBm")
NOISE_DBM = Option("noise_dbm", (), finite, "-98", "noise power in dBm")

# a scenario file's keys; load_scenario adds surface1..surfaceL for its L
SCENARIO_OPTIONS = (
    Option("surfaces", (), count, None, "reflecting surfaces L"),
    Option("elements", (), count, None, "elements per surface N"),
    Option("levels", (), int_list, "4", "phase levels, one value or one per surface"),
    Option("placement", (), one_of(("explicit", "random_staircase"), "placement"), "explicit",
           "explicit or random_staircase"),
    Option("tx", (), pair, "0,0", "transmitter position x,y in meters"),
    Option("rx", (), pair, "100,0", "receiver position x,y in meters"),
    Option("angles", (), _fixed_angle, "bearing", "bearing, fixed_deg:X or fixed_rad:X"),
    Option("propagation", (), _propagation, "chain_only",
           "eta:P, chain_only, all_los or adjacency:FILE"),
    Option("zero_nlos", (), boolean, "false", "non-line-of-sight links exactly zero"),
    POWER_DBM,
    NOISE_DBM,
    Option("spacing", (), finite, f"{DEFAULT_SPACING_M:g}", "element spacing in meters"),
    Option("wavelength", (), finite, f"{DEFAULT_WAVELENGTH_M:g}", "carrier wavelength in meters"),
)


def load_scenario(path) -> Scenario:
    config = ExperimentConfig(parse_config_file(path))
    L = config.options(SCENARIO_OPTIONS).surfaces
    rows = SCENARIO_OPTIONS + tuple(Option(f"surface{ell}", (), pair, None, "position x,y")
                                    for ell in range(1, L + 1))
    check_known_keys(config.values, {row.key for row in rows}, path)
    o = config.options(rows)
    grids = _grids_for(o.levels, L)
    spacing, wavelength = o.spacing, o.wavelength
    if not (spacing > 0 and wavelength > 0):
        raise ConfigError(f"spacing and wavelength must be positive, got {spacing} and "
                          f"{wavelength}")
    geometry = None
    if o.placement == "explicit":
        pos = [o.tx, *(getattr(o, f"surface{ell}") for ell in range(1, L + 1)), o.rx]
        try:
            geometry = Geometry(np.asarray(pos, dtype=float), spacing, wavelength)
        except ValueError as e:
            raise ConfigError(f"scenario geometry: {e}") from e
    propagation = o.propagation
    if isinstance(propagation, PropagationMap) and propagation.num_nodes != L + 2:
        raise ConfigError(
            f"adjacency has {propagation.num_nodes} nodes, scenario needs {L + 2}")
    return Scenario(
        num_surfaces=L,
        num_elements=o.elements,
        grids=grids,
        geometry=geometry,
        propagation=propagation,
        fixed_angle_rad=o.angles,
        zero_nlos=o.zero_nlos,
        params=_radio_params(o),
        spacing_m=spacing,
        wavelength_m=wavelength,
    )
