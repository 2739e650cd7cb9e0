"""The package's data files, and `read_json`, the one reader of every input
file: UTF-8 JSON as RFC 8259 defines it, with no `NaN` or `Infinity` and no
object that repeats a key. Anything else raises the caller's named error."""

import json
from importlib import resources


def read_json(path: str, error: type, what: str, empty: bool = False):
    """The JSON value in the `what` file at `path`, or `error`. With `empty`,
    a missing or blank file reads as an empty object."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, ValueError) as e:   # ValueError: undecodable bytes, a NUL in the path
        if empty and isinstance(e, FileNotFoundError):
            return {}
        raise error(f"cannot read {what} file {path}: {e}") from e
    if empty and not text.strip():
        return {}

    def unrepeated_keys(pairs: list) -> dict:
        # json.loads would keep only the last of two equal keys
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{what} file {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    def no_constant(name: str):
        raise error(f"{what} file {path} is not valid JSON: {name} is not a number")

    try:
        return json.loads(text, object_pairs_hook=unrepeated_keys,
                          parse_constant=no_constant)
    except (ValueError, RecursionError) as e:   # ValueError: also an over-long integer
        raise error(f"{what} file {path} is not valid JSON: {e}") from e


def data_file(name: str) -> str:
    path = resources.files("p4filter") / "data" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return str(path)


SCENARIOS = ("stateful_iperf", "stateless_block", "knock_auth", "spoof")


def default_topology_path() -> str:
    return data_file("topology_default.json")


def scenario_path(name: str) -> str:
    return data_file(f"scenario_{name}.json")
