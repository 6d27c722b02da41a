#!/usr/bin/env python3
"""Check that the CI workflow file parses as YAML.

    python3 tools/check_ci_yaml.py [PATH]

PATH defaults to the repository's .github/workflows/ci.yml. Exits 0
when the file parses, 1 when it does not, and 77 (the skip code the
ctest registration declares) when PyYAML is not installed, so a
missing parser reads as a skip rather than a pass.
"""
import os
import sys

SKIP = 77


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = argv[0] if argv else os.path.join(
        root, ".github", "workflows", "ci.yml")
    try:
        import yaml
    except ImportError:
        print("check_ci_yaml: skipped, PyYAML is not installed "
              "(pip install pyyaml to run this check)")
        return SKIP
    try:
        with open(path, encoding="utf-8") as f:
            doc = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as e:
        print(f"check_ci_yaml: {path}: {e}")
        return 1
    if not isinstance(doc, dict) or "jobs" not in doc:
        print(f"check_ci_yaml: {path}: no top-level 'jobs' mapping")
        return 1
    print(f"check_ci_yaml: {path}: ok, {len(doc['jobs'])} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
