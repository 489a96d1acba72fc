"""Declarative scenario specifications.

A :class:`ScenarioSpec` fully describes one Monte-Carlo collision
scenario: which registered scenario ``kind`` to run, the receiver design
under test, the senders (topology and powers), the impairment pipelines,
the backoff policy, and the trial budget. The radio model itself (unit
noise, oscillator, 802.11g slots, retry limits) is fixed by module
constants, not by the spec. Specs are immutable, picklable (they
cross process boundaries), serializable to plain dicts, and loadable
from TOML files::

    [scenario]
    kind = "pair"
    design = "zigzag"
    n_trials = 8

    [[sender]]
    name = "alice"
    snr_db = 12.0

    [[sender]]
    name = "bob"
    snr_db = 9.0

    [backoff]
    kind = "fixed"
    cw = 16

    [[impairments.sender]]      # optional: per-sender pipeline stages
    kind = "rayleigh"
    coherence_samples = 400

    [[impairments.capture]]     # optional: AP front end / interferers
    kind = "quantize"
    enob = 6.0

    [params]            # keys the kind declares (docs/scenarios.md)
    snr_db = 12.0

See ``docs/scenarios.md`` for the full schema and worked examples.
"""

from __future__ import annotations

import dataclasses
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.mac.backoff import BackoffPicker, ExponentialBackoff, FixedWindowBackoff
from repro.phy.impairments import ImpairmentPipeline, make_impairment
from repro.runner.chaos import FaultSpec
from repro.runner.resilience import FailurePolicy
from repro.testbed.deployment import DeploymentConfig

__all__ = [
    "BackoffSpec",
    "DeploymentSpec",
    "ImpairmentsSpec",
    "ScenarioSpec",
    "SenderSpec",
    "parse_sweep",
]


@dataclass(frozen=True)
class SenderSpec:
    """One transmitting node: its name and received SNR at the AP."""

    name: str
    snr_db: float
    freq_offset: float | None = None  # None: drawn from +/- FREQ_SPREAD
    # Streaming scenarios only: fraction of one packet-airtime this
    # client offers per packet-airtime. None = ``params.offered_load``
    # when set, else saturated.
    offered_load: float | None = None


@dataclass(frozen=True)
class BackoffSpec:
    """Backoff policy: ``fixed`` congestion window or ``exponential``."""

    kind: str = "fixed"
    cw: int = 16
    cw_min: int = 31
    cw_max: int = 1023

    def build(self) -> BackoffPicker:
        """Instantiate the matching :class:`~repro.mac.backoff.BackoffPicker`."""
        if self.kind == "fixed":
            return FixedWindowBackoff(self.cw)
        if self.kind == "exponential":
            return ExponentialBackoff(cw_min=self.cw_min, cw_max=self.cw_max)
        raise ConfigurationError(
            f"unknown backoff kind {self.kind!r}; use 'fixed' or 'exponential'")


def _freeze_stage(stage) -> tuple:
    """One pipeline stage as a sorted, hashable key/value tuple."""
    entry = dict(stage)
    make_impairment(entry)  # validate kind and parameters eagerly
    return tuple(sorted(entry.items()))


@dataclass(frozen=True)
class ImpairmentsSpec:
    """The ``[impairments]`` table: declarative impairment pipelines.

    ``sender`` stages ride on every transmission's channel (time-varying
    fading, SFO drift, ...); ``capture`` stages distort each summed
    capture once (AP front-end nonlinearity, interferers). Stages are
    stored as sorted key/value tuples so the spec stays hashable and
    picklable; :meth:`sender_pipeline` / :meth:`capture_pipeline` build
    the live :class:`~repro.phy.impairments.ImpairmentPipeline` objects.
    """

    sender: tuple = ()
    capture: tuple = ()

    def __post_init__(self) -> None:
        for attr in ("sender", "capture"):
            raw = getattr(self, attr)
            if isinstance(raw, dict):
                raise ConfigurationError(
                    f"[impairments].{attr} must be an array of tables "
                    f"([[impairments.{attr}]])")
            object.__setattr__(
                self, attr, tuple(_freeze_stage(s) for s in raw))

    @property
    def is_empty(self) -> bool:
        return not (self.sender or self.capture)

    def sender_pipeline(self) -> ImpairmentPipeline:
        return ImpairmentPipeline.from_specs(
            [dict(stage) for stage in self.sender])

    def capture_pipeline(self) -> ImpairmentPipeline:
        return ImpairmentPipeline.from_specs(
            [dict(stage) for stage in self.capture])

    def to_dict(self) -> dict:
        return {"sender": [dict(stage) for stage in self.sender],
                "capture": [dict(stage) for stage in self.capture]}

    def with_stage_override(self, path: str, value: Any) -> "ImpairmentsSpec":
        """Apply a ``<hook>.<index>.<field>`` override, e.g.
        ``sender.0.coherence_samples``."""
        hook, _, rest = path.partition(".")
        index_text, _, attr = rest.partition(".")
        if hook not in ("sender", "capture") or not attr:
            raise ConfigurationError(
                "impairment override needs "
                f"impairments.<sender|capture>.<index>.<field>: {path!r}")
        stages = [dict(stage) for stage in getattr(self, hook)]
        if not index_text.isdigit() or int(index_text) >= len(stages):
            raise ConfigurationError(
                f"no [[impairments.{hook}]] stage {index_text!r} "
                f"(have {len(stages)})")
        index = int(index_text)
        stages[index][attr] = value
        return replace(self, **{hook: tuple(stages)})


@dataclass(frozen=True)
class DeploymentSpec:
    """The ``[deployment]`` table: a geometry-derived multi-cell layout.

    Declares the city block ``city_multicell`` simulates: AP and
    client counts, area, the traffic mix, and the coordinator's worker
    count. The link budget, path-loss model, carrier-sense and
    association thresholds, interference floor and coordinator horizon
    are constants (:mod:`repro.testbed.pathloss`,
    :data:`repro.testbed.deployment.PATHLOSS`,
    :mod:`repro.testbed.topology`,
    :data:`repro.testbed.deployment.INTERFERENCE_FLOOR_DB`,
    :data:`repro.link.multicell.HORIZON_CHUNKS`). The
    default-constructed spec (``n_aps == 0``) means "no deployment
    declared" — scenarios that need one reject it, scenarios that don't
    reject anything else.

    The layout itself (positions, shadowing, association) is drawn from
    ``seed`` alone — independent of the trial seed, so every trial of a
    run sees the *same* city and Monte-Carlo noise stays in the
    MAC/PHY randomness.
    """

    n_aps: int = 0
    n_clients: int = 0
    area_m: float = 120.0
    seed: int = 7
    # Traffic mix: `saturated_fraction` of the clients are saturated
    # heavy hitters; the rest offer `offered_load` of a packet-airtime
    # each (0 = everyone saturated). Assignment is a deterministic hash
    # of the global client index, so the mix is stable across trials,
    # designs and worker counts.
    offered_load: float = 0.0
    saturated_fraction: float = 0.0
    # Cell worker processes for the coupled coordinator
    # (``city_multicell``): 1 steps cells sequentially, N > 1 pins
    # cells to N persistent workers, 0 means one worker per cell.
    # Results are bit-identical at any value (repro.link.parallel).
    coupled_workers: int = 1

    def validate(self) -> None:
        """Reject an unusable table (no-op when none was declared).

        Deliberately not ``__post_init__``: CLI ``--set`` overrides are
        applied one key at a time, so intermediate states (n_aps set,
        n_clients still 0) must stay constructible. ``from_dict`` and
        the runner's pre-run gate call this on the *final* spec.
        """
        if self.is_empty:
            return
        if self.n_aps < 1 or self.n_clients < 1:
            raise ConfigurationError(
                "[deployment] needs n_aps >= 1 and n_clients >= 1")
        if not 0.0 <= self.offered_load <= 1.0:
            raise ConfigurationError(
                "[deployment] offered_load must be in [0, 1]")
        if not 0.0 <= self.saturated_fraction <= 1.0:
            raise ConfigurationError(
                "[deployment] saturated_fraction must be in [0, 1]")
        if self.coupled_workers < 0:
            raise ConfigurationError(
                "[deployment] coupled_workers must be >= 0 "
                "(0 = one worker per cell)")
        self.config()  # let DeploymentConfig validate the rest eagerly

    @property
    def is_empty(self) -> bool:
        """True when no ``[deployment]`` table was declared."""
        return self.n_aps == 0 and self.n_clients == 0

    def config(self) -> DeploymentConfig:
        """The testbed-layer DeploymentConfig this spec describes."""
        return DeploymentConfig(n_aps=self.n_aps, n_clients=self.n_clients,
                                area_m=self.area_m)

    def client_offered_load(self, client: int) -> float | None:
        """Global client *client*'s offered load (None = saturated).

        A Knuth multiplicative hash of the index picks the saturated
        subset, so the mix is reproducible without consuming any rng.
        """
        if self.offered_load <= 0.0:
            return None
        u = ((client + 1) * 2654435761 % (1 << 32)) / (1 << 32)
        if u < self.saturated_fraction:
            return None
        return self.offered_load


_DESIGNS = ("zigzag", "802.11", "collision-free")


# Spec fields holding one flat dataclass table each; ``<table>.<field>``
# overrides replace the field inside it.
_FLAT_TABLES = ("backoff", "deployment", "resilience", "faults")


def _table(cls, name: str, entries):
    """Build *cls* from one TOML table; an unknown key names the table."""
    try:
        return cls(**entries)
    except TypeError as exc:
        raise ConfigurationError(f"bad {name} table: {exc}") from exc


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative Monte-Carlo scenario description."""

    kind: str
    design: str = "zigzag"
    senders: tuple[SenderSpec, ...] = ()
    backoff: BackoffSpec = field(default_factory=BackoffSpec)
    impairments: ImpairmentsSpec = field(default_factory=ImpairmentsSpec)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    sense_probability: float = 0.0
    payload_bits: int = 240
    n_packets: int = 6
    preamble_length: int = 32
    n_trials: int = 4
    seed: int = 0
    # Decode batch size for scenarios with a registered batched engine:
    # 1 = the per-trial loop path; > 1 groups that many trials per
    # trial-axis decode pass. Per-trial seed streams are unaffected.
    batch_size: int = 1
    # Failure policy ([resilience]) and chaos injection ([faults]); see
    # docs/resilience.md. Defaults are fail_fast with no faults — the
    # pre-supervision behavior.
    resilience: FailurePolicy = field(default_factory=FailurePolicy)
    faults: FaultSpec = field(default_factory=FaultSpec)
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("scenario kind must be non-empty")
        if self.design not in _DESIGNS:
            raise ConfigurationError(
                f"unknown design {self.design!r}; choose from {_DESIGNS}")
        if not 0.0 <= self.sense_probability <= 1.0:
            raise ConfigurationError("sense_probability must be in [0, 1]")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if isinstance(self.params, dict):
            object.__setattr__(self, "params",
                               tuple(sorted(self.params.items())))

    # -- scenario-specific keys ----------------------------------------
    def param(self, key: str) -> Any:
        """The ``[params]`` value of *key*, else the default the spec's
        kind declares for it; a key the kind does not declare raises."""
        default = _declared_params(self.kind, (key,))[key]
        return dict(self.params).get(key, default)

    def check_params(self) -> "ScenarioSpec":
        """Reject a ``[params]`` key the kind does not declare; else
        return self."""
        if self.params:
            _declared_params(self.kind, dict(self.params))
        return self

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build a spec from the nested-dict form (the TOML layout)."""
        data = dict(data)
        scalar = dict(data.pop("scenario", {}))
        senders = tuple(_table(SenderSpec, "[[sender]]", entry)
                        for entry in data.pop("sender", ()))
        backoff = _table(BackoffSpec, "[backoff]", data.pop("backoff", {}))
        impairments_table = dict(data.pop("impairments", {}))
        unknown_hooks = set(impairments_table) - {"sender", "capture"}
        if unknown_hooks:
            raise ConfigurationError(
                f"unknown [impairments] hooks: {sorted(unknown_hooks)}; "
                "use [[impairments.sender]] / [[impairments.capture]]")
        impairments = ImpairmentsSpec(**impairments_table)
        deployment = _table(DeploymentSpec, "[deployment]",
                            data.pop("deployment", {}))
        deployment.validate()
        resilience = _table(FailurePolicy, "[resilience]",
                            data.pop("resilience", {}))
        faults = _table(FaultSpec, "[faults]", data.pop("faults", {}))
        params = tuple(sorted(dict(data.pop("params", {})).items()))
        if data:
            raise ConfigurationError(
                f"unknown scenario tables: {sorted(data)}")
        try:
            spec = cls(senders=senders, backoff=backoff,
                       impairments=impairments, deployment=deployment,
                       resilience=resilience, faults=faults,
                       params=params, **scalar)
        except TypeError as exc:
            raise ConfigurationError(f"bad [scenario] table: {exc}") from exc
        return spec.check_params()

    @classmethod
    def from_toml(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec from a TOML file (see ``docs/scenarios.md``)."""
        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(
                    f"invalid TOML in {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """The nested-dict form; ``from_dict(to_dict())`` round-trips."""
        scalar_fields = [
            "kind", "design", "sense_probability", "payload_bits",
            "n_packets", "preamble_length", "n_trials", "seed",
            "batch_size",
        ]
        out: dict[str, Any] = {
            "scenario": {name: getattr(self, name)
                         for name in scalar_fields},
        }
        if self.senders:
            out["sender"] = [dataclasses.asdict(s) for s in self.senders]
        out["backoff"] = dataclasses.asdict(self.backoff)
        if not self.impairments.is_empty:
            out["impairments"] = self.impairments.to_dict()
        if not self.deployment.is_empty:
            out["deployment"] = dataclasses.asdict(self.deployment)
        if self.resilience != FailurePolicy():
            out["resilience"] = dataclasses.asdict(self.resilience)
        if not self.faults.is_empty or self.faults != FaultSpec():
            out["faults"] = dataclasses.asdict(self.faults)
        if self.params:
            out["params"] = dict(self.params)
        return out

    # -- overrides ------------------------------------------------------
    def with_override(self, key: str, value: Any) -> "ScenarioSpec":
        """Return a copy with one dotted-path override applied.

        Accepted forms: a top-level field (``n_trials``), a nested field
        (``backoff.cw``, ``deployment.n_aps``), a sender field
        (``sender.alice.snr_db``), an impairment-stage field
        (``impairments.sender.0.coherence_samples``), or a ``[params]``
        key the kind declares (``params.sinr_db``, or bare ``sinr_db``:
        a bare key that is no spec field is looked up in ``[params]``).
        """
        try:
            return self._override(key, value)
        except TypeError as exc:  # a nested table has no such field
            raise ConfigurationError(
                f"bad override {key}={value!r}: {exc}") from exc

    def _override(self, key: str, value: Any) -> "ScenarioSpec":
        head, _, rest = key.partition(".")
        if head == "impairments" and rest:
            return replace(self, impairments=self.impairments
                           .with_stage_override(rest, value))
        if head in _FLAT_TABLES and rest:
            table = replace(getattr(self, head), **{rest: value})
            return replace(self, **{head: table})
        if head == "sender" and rest:
            name, _, attr = rest.partition(".")
            if not attr:
                raise ConfigurationError(
                    f"sender override needs sender.<name>.<field>: {key}")
            if name not in {s.name for s in self.senders}:
                raise ConfigurationError(f"no sender named {name!r}")
            senders = tuple(
                replace(s, **{attr: value}) if s.name == name else s
                for s in self.senders)
            return replace(self, senders=senders)
        if head == "params" and rest:
            return replace(self, params={**dict(self.params), rest: value}
                           ).check_params()
        if rest:
            raise ConfigurationError(f"unknown override path: {key}")
        if head in ("design", "kind"):
            value = str(value)  # "802.11" must stay a name, not a float
        if head in {f.name for f in dataclasses.fields(self)} \
                and head != "params":
            return replace(self, **{head: value})
        return replace(self, params={**dict(self.params), head: value}
                       ).check_params()


def _declared_params(kind: str, keys) -> dict[str, Any]:
    """*kind*'s declared ``[params]`` defaults; raises if *keys* has
    a key it does not declare."""
    # The registry imports this module; look it up at call time.
    from repro.runner.scenarios import get_scenario
    declared = get_scenario(kind).params
    for key in keys:
        if key not in declared:
            raise ConfigurationError(
                f"scenario {kind!r} has no [params] key {key!r} "
                f"(declared: {', '.join(declared) or 'none'})")
    return declared


def _coerce(text: str) -> Any:
    """Parse a CLI value: int, then float, then bare string/bool."""
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def parse_sweep(expr: str) -> tuple[str, list[Any]]:
    """Parse a sweep expression into ``(dotted_key, values)``.

    Two forms: a range ``snr_db=0:20:2`` (inclusive of the stop when it
    lands on the grid, like the paper's axis ticks) and an explicit list
    ``design=zigzag,802.11``. A single value yields a one-point sweep.
    """
    key, sep, rhs = expr.partition("=")
    key = key.strip()
    if not sep or not key or not rhs.strip():
        raise ConfigurationError(
            f"sweep must look like key=start:stop:step or key=a,b,c: {expr!r}")
    rhs = rhs.strip()
    if ":" in rhs:
        pieces = rhs.split(":")
        if len(pieces) not in (2, 3):
            raise ConfigurationError(f"bad sweep range {rhs!r}")
        start, stop = (float(p) for p in pieces[:2])
        step = float(pieces[2]) if len(pieces) == 3 else 1.0
        if step <= 0:
            raise ConfigurationError("sweep step must be positive")
        values: list[Any] = []
        value = start
        while value <= stop + 1e-9 * max(1.0, abs(stop)):
            values.append(round(value, 12))
            value += step
        if not values:
            raise ConfigurationError(f"empty sweep range {rhs!r}")
        return key, values
    pieces = rhs.split(",")
    coerced = [_coerce(piece) for piece in pieces]
    # All-or-nothing numeric coercion: a list like "zigzag,802.11" is a
    # list of names even though "802.11" parses as a float.
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in coerced):
        return key, coerced
    return key, [piece.strip() for piece in pieces]
