"""Run-manifest schema validation (dependency-free JSON Schema subset).

CI validates every manifest an instrumented run produces against the
checked-in ``run_manifest.schema.json`` so the manifest format is an
explicit, reviewed contract rather than whatever the engine happened to
emit.  The container bakes in no ``jsonschema`` package, so this module
implements the small subset of JSON Schema the manifest schema actually
uses: ``type`` (scalar or union list), ``properties`` / ``required`` /
``additionalProperties``, ``items``, ``enum``, ``minimum`` and ``const``.

Unknown schema keywords are rejected loudly at validation time — a
schema edit that silently validated nothing would be worse than no
schema at all.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

__all__ = [
    "SCHEMA_PATH",
    "SLO_SCHEMA_PATH",
    "load_schema",
    "validate",
    "validate_manifest",
]

#: The checked-in manifest schema shipped inside the package.
SCHEMA_PATH = Path(__file__).with_name("run_manifest.schema.json")
#: The loadgen SLO report schema (``benchmarks/loadgen.py``).
SLO_SCHEMA_PATH = Path(__file__).with_name("slo_report.schema.json")

#: Schema keywords this validator understands.
_SUPPORTED = frozenset(
    {
        "$schema",
        "$id",
        "title",
        "description",
        "type",
        "properties",
        "required",
        "additionalProperties",
        "items",
        "enum",
        "minimum",
        "const",
    }
)

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def load_schema(path: Path = SCHEMA_PATH) -> Dict[str, Any]:
    """Load a schema document from disk."""
    with path.open() as fh:
        schema = json.load(fh)
    if not isinstance(schema, dict):
        raise ValueError(f"schema root must be an object: {path}")
    return schema


def validate(
    instance: Any, schema: Dict[str, Any], path: str = "$"
) -> List[str]:
    """All violations of ``schema`` by ``instance`` (empty list = valid)."""
    errors: List[str] = []
    unknown = set(schema) - _SUPPORTED
    if unknown:
        raise ValueError(
            f"unsupported schema keyword(s) at {path}: {sorted(unknown)}"
        )

    if "const" in schema and instance != schema["const"]:
        errors.append(
            f"{path}: expected const {schema['const']!r}, got {instance!r}"
        )
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(
            f"{path}: {instance!r} not one of {schema['enum']!r}"
        )

    declared = schema.get("type")
    if declared is not None:
        allowed = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](instance) for t in allowed):
            errors.append(
                f"{path}: expected type {'/'.join(allowed)},"
                f" got {type(instance).__name__}"
            )
            return errors  # structural checks below would only cascade

    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for name, value in instance.items():
            if name in properties:
                errors.extend(
                    validate(value, properties[name], f"{path}.{name}")
                )
            elif additional is False:
                errors.append(f"{path}: unexpected property {name!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional, f"{path}.{name}"))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], f"{path}[{index}]")
            )
    if (
        "minimum" in schema
        and isinstance(instance, (int, float))
        and not isinstance(instance, bool)
        and instance < schema["minimum"]
    ):
        errors.append(
            f"{path}: {instance} below minimum {schema['minimum']}"
        )
    return errors


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Validate one manifest dict against the checked-in schema."""
    scrubbed = {k: v for k, v in manifest.items() if not k.startswith("_")}
    return validate(scrubbed, load_schema())
