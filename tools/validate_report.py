#!/usr/bin/env python3
"""Validate an ibarb.report/2 JSON file against tools/report_schema.json.

Stdlib-only (CI must not pip-install anything), so this implements the small
JSON-Schema subset the checked-in schema actually uses: type, const,
required, properties, additionalProperties, items, minProperties.

On top of the schema, one semantic check:
  * Quarantine: the wall-clock telemetry family (profile.*) may appear in
    the `telemetry` section but must NEVER leak into the `series` section —
    series output is part of the byte-determinism contract across --jobs,
    and wall-clock columns would break it.

Usage:  validate_report.py [--schema FILE] report.json [report2.json ...]
        validate_report.py -          # read one report from stdin
Exit 0 when every input validates; 1 with a path-qualified error otherwise.
"""

import argparse
import json
import os
import sys


class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"{path or '$'}: {message}")


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check_type(value, expected, path):
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        if name == "integer":
            # JSON has one number type; an integral float (1.0) counts.
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                return
            if isinstance(value, float) and value.is_integer():
                return
        elif name == "number":
            if not isinstance(value, bool) and isinstance(value, (int, float)):
                return
        elif isinstance(value, _TYPES[name]):
            return
    raise SchemaError(path, f"expected type {expected}, got {type(value).__name__}")


def validate(value, schema, path=""):
    if "const" in schema:
        if value != schema["const"]:
            raise SchemaError(path, f"expected {schema['const']!r}, got {value!r}")
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if isinstance(value, dict):
        for req in schema.get("required", ()):
            if req not in value:
                raise SchemaError(path, f"missing required member {req!r}")
        if len(value) < schema.get("minProperties", 0):
            raise SchemaError(path, "object has too few members")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, member in value.items():
            sub = f"{path}.{key}" if path else key
            if key in props:
                validate(member, props[key], sub)
            elif extra is False:
                raise SchemaError(sub, "unexpected member")
            elif isinstance(extra, dict):
                validate(member, extra, sub)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")


# The family sampled into telemetry but quarantined out of the deterministic
# series section (obs::is_quarantined_name mirrors this in C++).
QUARANTINED_PREFIX = "profile."


def check_semantics(report):
    """Checks the schema cannot express; raises SchemaError on violation."""
    series = report.get("series")
    if isinstance(series, dict):
        for section in ("counters", "gauges"):
            for key in series.get(section, {}):
                if key.startswith(QUARANTINED_PREFIX):
                    raise SchemaError(
                        f"series.{section}.{key}",
                        "quarantined wall-clock family leaked into series",
                    )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(__file__), "report_schema.json"),
    )
    parser.add_argument("reports", nargs="+", help="report files, or - for stdin")
    args = parser.parse_args(argv)

    with open(args.schema, encoding="utf-8") as f:
        schema = json.load(f)

    status = 0
    for name in args.reports:
        try:
            if name == "-":
                report = json.load(sys.stdin)
            else:
                with open(name, encoding="utf-8") as f:
                    report = json.load(f)
            validate(report, schema)
            check_semantics(report)
        except (OSError, json.JSONDecodeError, SchemaError) as e:
            print(f"{name}: FAIL: {e}", file=sys.stderr)
            status = 1
        else:
            print(f"{name}: ok")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
