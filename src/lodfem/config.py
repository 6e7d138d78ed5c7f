"""Experiment configuration: flat key = value text files with # comments.

Lists are comma separated.  Every field serializes, so parse(serialize(c))
round-trips exactly for every valid config; for that, a text value may not
hold `#` or a line break, or start or end with blanks.  Two presets ship:
`desk` finishes full sweeps in minutes, `paper` runs the full-scale study
(fine grid 256, coarse sizes 8..64, patch orders 1..3).
"""

import math
from dataclasses import dataclass, fields, replace

RHS_NAMES = ("x", "one", "manufactured", "zero")
MODES = ("global", "localized", "petrov")
TIMING_MODES = ("wall", "off")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    fine_n: int = 64
    coarse_n: tuple = (4, 8, 16)
    levels: tuple = (2,)
    mode: str = "localized"
    rhs: str = "x"
    coeff_kind: str = "checkerboard"
    coeff_constant: float = 1.0
    coeff_epsilon: float = 0.25
    coeff_amplitude: float = 8.0
    coeff_cell: int = 64
    coeff_contrast: float = 20.0
    seed: int = 10
    tol: float = 1e-10
    threads: int = 1
    timings: str = "wall"
    decay_factors: tuple = ()
    decay_node: str = "center"
    out: str = ""
    solution_out: str = ""

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and (
                    "#" in value or value != value.strip()
                    or len(value.splitlines()) > 1):
                raise ConfigError(
                    f"{f.name} cannot hold '#', a line break, or leading or "
                    f"trailing blanks, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.fine_n < 2:
            raise ConfigError(f"fine_n must be >= 2, got {self.fine_n}")
        if not self.coarse_n:
            raise ConfigError("coarse_n must list at least one resolution")
        for n in self.coarse_n:
            if n < 2:
                raise ConfigError(f"coarse_n entries must be >= 2, got {n}")
            ratio, rem = divmod(self.fine_n, n)
            if rem != 0 or ratio < 2 or ratio & (ratio - 1):
                raise ConfigError(
                    f"fine_n {self.fine_n} must be coarse_n * 2^k with k >= 1 "
                    f"for nesting, got coarse_n {n}")
        if not self.levels or any(l < 1 for l in self.levels):
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        for name in ("coarse_n", "levels"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} repeats an entry: {entries}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.rhs not in RHS_NAMES:
            raise ConfigError(f"rhs must be one of {RHS_NAMES}, got {self.rhs!r}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.timings not in TIMING_MODES:
            raise ConfigError(f"timings must be one of {TIMING_MODES}")
        if any(f < 2 for f in self.decay_factors):
            raise ConfigError("decay_factors must be >= 2 (radii above the mesh size)")
        if any(b <= a for a, b in zip(self.decay_factors, self.decay_factors[1:])):
            raise ConfigError(
                f"decay_factors must be strictly increasing, got {self.decay_factors}")
        if self.decay_node != "center" and not self.decay_node.isdigit():
            raise ConfigError("decay_node must be 'center' or a coarse vertex id")
        return self


DESK_PRESET = ExperimentConfig()
PAPER_PRESET = ExperimentConfig(
    fine_n=256,
    coarse_n=(8, 16, 32, 64),
    levels=(1, 2, 3),
)
PRESETS = {"desk": DESK_PRESET, "paper": PAPER_PRESET}

def _parse_value(f, raw):
    """The value of field `f` from its text, typed by the field's annotation:
    int, float or str, and tuple for a comma-separated int list."""
    raw = raw.strip()
    try:
        if f.type is tuple:
            return tuple(int(part) for part in raw.split(",")) if raw else ()
        return f.type(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {f.name}: {raw!r}") from exc


def parse_config(text, base=None):
    """Parse key = value lines over a base config (desk preset by default)."""
    cfg = base if base is not None else DESK_PRESET
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in by_name:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _parse_value(by_name[key], raw)
    return replace(cfg, **updates).validate()


def load_config(path, base=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base)


def serialize_config(cfg):
    """Emit every field as key = value (lists comma separated)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.type is tuple:
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
