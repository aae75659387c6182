"""Event-triggered boundary control of the one-phase Stefan problem.

Simulation library and CLI: moving-boundary plant, backstepping observer,
zero-order-hold feedback with a dynamic event trigger, the full constant
derivation chain behind the trigger, and Lyapunov diagnostics.
"""

from .config import (ScenarioConfig, default_config, default_config_text,
                     parse_config, parse_config_text, serialize_config)
from .errors import (ConfigurationError, InvariantViolation, NumericalFailure,
                     ValidityBreach)
from .harness import (ScenarioResult, derivation_report, emit_outputs,
                      run_scenario)
from .params import (ControllerConfig, InitialData, PhysicalParams,
                     TriggerConfig, TriggerDerived, derive_physical,
                     derive_trigger, validate_initial_data)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ControllerConfig", "InitialData",
    "InvariantViolation", "NumericalFailure", "PhysicalParams",
    "ScenarioConfig", "ScenarioResult", "TriggerConfig", "TriggerDerived",
    "ValidityBreach", "default_config",
    "default_config_text", "derivation_report", "derive_physical",
    "derive_trigger", "emit_outputs", "parse_config", "parse_config_text",
    "run_scenario", "serialize_config", "validate_initial_data",
]
