"""Accessible information, entropy ceilings, and measurement-engine
work ledgers for finite-dimensional quantum sources.

Importing the package loads none of its modules: each public name and
submodule is looked up in its home module when first asked for, which
imports that module (PEP 562).  A name is not kept here, so
``infotherm.X`` is always the home module's current ``X``.
"""

import importlib

__version__ = "0.1.0"

#: The home module of each public name.
_HOMES = {
    name: module
    for module, names in {
        "blockcoding": (
            "BlockReport",
            "block_scan",
            "pretty_good_measurement",
            "sequence_ensemble",
        ),
        "bounds": (
            "BoundReport",
            "OptimizerConfig",
            "evaluate_bounds",
            "maximize_accessible_information",
            "random_instance",
        ),
        "errors": (
            "BlockFormViolation",
            "BudgetExceeded",
            "DimensionMismatch",
            "NegativeEigenvalue",
            "NonPositiveVolume",
            "NotHermitian",
            "NotProjective",
            "NumericalFailure",
            "SecondLawViolation",
            "ToolkitError",
            "UnsupportedDimension",
            "ValidationError",
        ),
        "linops": ("HermitianEigen", "hermitian_eig", "psd_function", "tensor_product"),
        "measurement": (
            "JointDistribution",
            "Povm",
            "basis_measurement",
            "delta_s",
            "demon_record_state",
            "demon_reset",
            "joint_distribution",
            "mutual_information",
            "naimark_dilation",
            "outcome_distribution",
            "post_measurement_state",
        ),
        "quantum": (
            "DensityMatrix",
            "Ensemble",
            "average_state",
            "ensemble_commutes",
            "holevo_chi",
            "maximally_mixed",
            "pure_state",
            "shannon_entropy",
            "shared_eigenbasis",
            "von_neumann_entropy",
        ),
        "thermo": (
            "STAGE_ENSEMBLE_RECOMPRESSION",
            "STAGE_EXTRACTION",
            "STAGE_ISENTROPIC",
            "STAGE_RHO_COMPRESSION",
            "STAGE_RHO_EXPANSION",
            "STAGE_SIGMA_COMPRESSION",
            "STAGES",
            "CycleLedger",
            "LedgerEntry",
            "extraction_stage",
            "rho_to_initial_stage",
            "run_cycle",
            "sigma_to_rho_stage",
            "stage_total",
            "work_isothermal",
        ),
    }.items()
    for name in names
}
#: The submodules a name resolves to, each its own home.
_HOMES.update((module, module) for module in set(_HOMES.values()))

__all__ = sorted(name for name, module in _HOMES.items() if name != module)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    """Every public name and submodule besides what is loaded, and none of
    the lookup's own names."""
    own = {"importlib", "_HOMES", "__getattr__", "__dir__"}
    return sorted((globals().keys() - own) | _HOMES.keys())
