"""Exception types shared across the package, and ``require_positive``, the
count check that every config's ``validate`` uses."""


class ContractError(RuntimeError):
    """A caller violated an operation's precondition."""


class ConfigError(ValueError):
    """Invalid configuration (unknown key, bad value, inconsistent sizes)."""


class DimensionError(ValueError):
    """Shape mismatch in network math; message names the offending layer."""


def require_positive(cfg, *keys: str):
    """Raise ConfigError naming the first of ``keys`` whose value is below 1."""
    for key in keys:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
