"""Bit-exact file formats for logs, policies, models, traces, and reports,
and the reader of the YAML experiment config.

Logs are line-delimited JSON: a one-line header carrying the mode, then one
self-describing record per tuple with its embedded candidate feature matrix.
orjson is the one JSON codec.  It writes compact UTF-8 with every float as
its shortest round-trip decimal (Ryu), so any JSON reader gets back every
value bit for bit, and identical inputs always produce byte-identical files.

Every other JSON and CSV file holds the fields of records (the README lists
which), so each key or column is named once, by a dataclass field; a field
that holds a record is written as that record's fields.  A reader converts
each value by its field's declared type.

This module is the one input boundary of the CLI.  Every file, the config
included, is read as bytes, so no input escapes as a bare decode error.  An
input that does not decode or parse fails naming ``file:line``; a missing
key or a bad value fails naming the file and the key.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import orjson
import yaml

from .domain import Log, Mode, PolicyParams, _integer, _matrix, _member, _real
from .errors import CflearnError, ConfigurationError, LogConsistencyError
from .reward import RewardModel
from .simulator import GroundTruth, LoggingPolicy, TaskSpec, _fractions
from .training import EpochRecord, TrainConfig, TrainTrace


def _number(key: str, value) -> float:
    """``value`` as a float if it is a finite real number, not a bool or a
    string; raises ValueError naming ``key``."""
    return float(_real(key, value))


def _vector(key: str, values) -> np.ndarray:
    """``values`` as a float vector if it is a list of JSON numbers, not of
    bools, strings or null; raises ValueError naming ``key``.  orjson reads
    no number beyond the float range, so the vector is finite."""
    if type(values) is not list or not {int, float}.issuperset(map(type, values)):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return np.array(values, dtype=float)


_CONVERTERS = {  # (key, JSON value) -> the value as a field of the declared type
    np.ndarray: _vector,
    float: _number,
    Mode: lambda key, value: _member(key, Mode, value),
    dict[str, np.ndarray]: lambda key, values: _rows(key, dict(values)),
}


def _rows(key: str, rows: dict) -> dict:
    """``rows`` if each value is a list of JSON numbers, all tested in one pass
    (GroundTruth converts them as one array); raises ValueError naming the first that is not."""
    cells = chain.from_iterable(rows.values())
    if {list}.issuperset(map(type, rows.values())) and {int, float}.issuperset(map(type, cells)):
        return rows
    return {name: _vector(f"{key}.{name}", values) for name, values in rows.items()}


def _fields(record) -> dict:
    """The fields of the dataclass ``record`` by name, with the fields of a
    field that holds a record in its place: the file format of a record."""
    payload = {}
    for f in fields(record):
        value = getattr(record, f.name)
        payload.update(_fields(value) if is_dataclass(value) else {f.name: value})
    return payload


def _write_json(path: str | Path, payload: dict) -> None:
    options = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    Path(path).write_bytes(orjson.dumps(payload, option=options))


def write_log(path: str | Path, log: Log) -> None:
    """Write the header and then one record per row, line by line."""
    propensities = None if log.propensities is None else log.propensities.tolist()
    columns = zip(log.ids.tolist(), log.k.tolist(), log.chosen.tolist(), log.rewards.tolist())
    options = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(path, "wb") as handle:
        handle.write(orjson.dumps({"mode": log.mode.value}, option=options))
        for row, (ident, k, chosen, reward) in enumerate(columns):
            record = {
                "id": ident,
                "features": log.features[row, :k],  # a contiguous (k, d) block
                "chosen": chosen,
                "reward": reward,
            }
            if propensities is not None:
                record["propensity"] = propensities[row]
            handle.write(orjson.dumps(record, option=options))


# A log file is read _BUFFER bytes at a time: more than a record line (about
# 20 KB at k * d = 1000), so a line takes one or two reads, and far less than
# the columns, so reading holds little beside them (test_serialize bounds it).
_BUFFER = 1 << 16
_RECORD_KEYS = ("id", "features", "chosen", "reward")


def _has_bool(line: bytes, record: dict) -> bool:
    """Whether the features of ``record``, parsed from ``line``, hold a bool.
    No number or bracket holds a ``t``, an ``f`` or a ``"``, so the bytes from
    the first ``"features":`` to the next ``"`` are scanned for a ``true`` or a
    ``false``.  Where that key may not be the features' own (more keys than a
    record's, the key or an escape later in the line), each value is tested."""
    key = line.find(b'"features":')
    start = key + len(b'"features":')
    if key >= 0 and len(record) == len(_RECORD_KEYS) + ("propensity" in record):
        end = line.find(b'"', start)
        if end < 0:
            end = len(line)
        if line.find(b'"features":', end) < 0 and line.find(b"\\", end) < 0:
            return line.find(b"t", start, end) >= 0 or line.find(b"f", start, end) >= 0
    return any(bool in map(type, row) for row in record["features"])


def _log_row(line: bytes, mode: Mode) -> tuple:
    """The id, candidate matrix, chosen index, reward and propensity of a
    record line, each of its type; ``Log._check`` tests their values.
    Raises TypeError, ValueError or a CflearnError."""
    record = orjson.loads(line)
    if type(record) is not dict:
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    missing = [key for key in _RECORD_KEYS if key not in record]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    ident, chosen, propensity = record["id"], record["chosen"], record.get("propensity")
    if (propensity is None) == (mode is Mode.STOCHASTIC):
        need = "needs" if mode is Mode.STOCHASTIC else "must not have"
        raise ValueError(f"a {mode.value} log record {need} a propensity")
    if type(ident) is not str:
        raise TypeError(f"id must be a string, got {ident!r}")
    if type(chosen) is not int:
        raise TypeError(f"chosen must be an integer, got {chosen!r}")
    reward = _number("reward", record["reward"])
    propensity = None if propensity is None else _number("propensity", propensity)
    candidates = np.array(record["features"])
    if candidates.dtype.kind not in "iuf":
        raise TypeError(f"features must be numbers, got an array of {candidates.dtype}")
    _matrix(ident, candidates)
    if _has_bool(line, record):
        raise TypeError("features must be numbers, got a bool among them")
    return ident, candidates, chosen, reward, propensity


def read_log(path: str | Path) -> Log:
    """Read a log written by :func:`write_log`.

    The file is read through a ``_BUFFER``-byte buffer, once to count its
    lines and once to parse each record into its row of preallocated
    columns; the feature tensor widens only when a record has more
    candidates than any before it, so reading holds it once.  The values of
    the rows parsed are tested by ``Log._check`` at the end or at a record
    that fails to parse.  Malformed input raises :class:`LogConsistencyError`
    naming the file and the first bad line.
    """
    with open(path, "rb", buffering=_BUFFER) as handle:
        header_line = handle.readline()
        if not header_line:
            raise LogConsistencyError(f"{path}: empty log file")
        try:
            header = orjson.loads(header_line)
            if not isinstance(header, dict) or "mode" not in header:
                raise ValueError("the header needs a mode field")
            mode = Mode(header["mode"])
        except ValueError as err:
            raise LogConsistencyError(f"{path}:1: bad log header: {err}") from err
        start = handle.tell()
        n = sum(1 for _ in handle)
        handle.seek(start)
        ids = np.empty(n, dtype=object)
        k = np.empty(n, dtype=np.intp)
        chosen = np.empty(n, dtype=object)  # holds a chosen beyond np.intp for the range test
        rewards = np.empty(n)
        propensities = np.empty(n) if mode is Mode.STOCHASTIC else None
        features = np.zeros((0, 0, 0))
        rows, fault = n, None
        for row, line in enumerate(handle):
            try:
                ident, candidates, choice, reward, propensity = _log_row(line, mode)
                count, dim = candidates.shape
                if row == 0:
                    features = np.zeros((n, count, dim))
                elif dim != features.shape[2]:
                    raise ValueError(
                        f"feature dimension {dim} differs from the first record's {features.shape[2]}"
                    )
                elif count > features.shape[1]:
                    wider = np.zeros((n, count, dim))
                    wider[:row, : features.shape[1]] = features[:row]
                    features = wider
            except (TypeError, ValueError, CflearnError) as err:
                rows, fault = row, err
                break
            features[row, :count] = candidates
            ids[row], k[row], chosen[row], rewards[row] = ident, count, choice, reward
            if propensities is not None:
                propensities[row] = propensity
    props = None if propensities is None else propensities[:rows]
    try:
        Log._check(ids[:rows], k[:rows], features[:rows], chosen[:rows], rewards[:rows], props)
    except ConfigurationError as err:  # a bad value on an earlier line than a bad record
        rows, fault = err.row, err
    if fault is not None:
        raise LogConsistencyError(f"{path}:{rows + 2}: bad log record: {fault}") from fault
    return Log._from_columns(mode, ids, features, k, chosen.astype(np.intp), rewards, propensities)


def _text(path: str | Path, data: bytes) -> str:
    """``data`` decoded as UTF-8; raises ConfigurationError naming the line of a bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        raise ConfigurationError(f"{path}:{line}: not valid UTF-8: {bad.reason}") from bad


def _load_json(path: str | Path):
    data = Path(path).read_bytes()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as err:
        _text(path, data)  # orjson places a bad byte at line 1
        raise ConfigurationError(f"{path}:{err.lineno}: not valid JSON: {err.msg}") from err


def _load_yaml(path: str | Path):
    text = _text(path, Path(path).read_bytes())
    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as err:
        mark = err.problem_mark or err.context_mark
        reason = err.problem or err.context
        raise ConfigurationError(f"{path}:{mark.line + 1}: not valid YAML: {reason}") from err
    except yaml.YAMLError as err:  # the reader's: a character YAML does not allow
        line = text.count("\n", 0, err.position) + 1
        raise ConfigurationError(f"{path}:{line}: not valid YAML: {err.reason}") from err


def _get(payload, key: str, convert, path: str | Path, where: str = ""):
    """``convert(payload[key])``; raises ConfigurationError naming the file and the key."""
    name = f"{where}.{key}" if where else key
    if not isinstance(payload, dict) or key not in payload:
        raise ConfigurationError(f"{path}: missing key {name}")
    try:
        return convert(payload[key])
    except (TypeError, ValueError, CflearnError) as err:
        raise ConfigurationError(f"{path}: bad value for {name}: {err}") from err


def _record(cls, payload, path: str | Path, where: str = ""):
    """A ``cls`` from the keys of ``payload`` that its fields name, each
    value converted to its field's declared type; a field that holds a
    record takes that record's keys from ``payload`` too.  Raises
    ConfigurationError naming the file, and the key where one is at fault."""
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            values[f.name] = _record(hint, payload, path, where)
        else:
            convert = partial(_CONVERTERS[hint], f.name)
            values[f.name] = _get(payload, f.name, convert, path, where)
    try:
        return cls(**values)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err


def _keys(cls, data) -> dict:
    """``data`` if it maps field names of the dataclass ``cls``; raises TypeError or ValueError."""
    if not isinstance(data, dict):
        raise TypeError(f"expected a mapping, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown, key=str)}")
    return data


@dataclass
class ExperimentConfig:
    task: TaskSpec
    train: TrainConfig
    splits: tuple[float, float, float] = (0.5, 0.25, 0.25)
    split_seed: int = 0
    output_dir: Path = Path("out")


_CONFIG_KEYS = {  # each config key's converter; the defaults are ExperimentConfig's
    "task": lambda data: TaskSpec(**_keys(TaskSpec, data)),
    "train": lambda data: TrainConfig(**_keys(TrainConfig, data)),
    "splits": _fractions,
    "split_seed": lambda value: _integer("split_seed", value, 0),
    "output_dir": Path,
}


def read_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML experiment config.  Every error is a ConfigurationError
    naming the file, and the line or the key."""
    data = _load_yaml(path)
    try:
        keys = _keys(ExperimentConfig, data)
        return ExperimentConfig(**{key: _get(data, key, _CONFIG_KEYS[key], path) for key in keys})
    except (TypeError, ValueError) as err:  # not a mapping, an unknown or a missing key
        raise ConfigurationError(f"{path}: {err}") from err


def write_truth(path: str | Path, truth: GroundTruth, logging_policy: LoggingPolicy) -> None:
    _write_json(path, {**_fields(truth), "logging_policy": _fields(logging_policy)})


def read_truth(path: str | Path) -> tuple[GroundTruth, LoggingPolicy]:
    payload = _load_json(path)
    logger = _get(payload, "logging_policy", dict, path)
    return _record(GroundTruth, payload, path), _record(LoggingPolicy, logger, path, "logging_policy")


def write_params(path: str | Path, params: PolicyParams, extra: dict | None = None) -> None:
    _write_json(path, {**_fields(params), **(extra or {})})


def read_params(path: str | Path) -> tuple[PolicyParams, dict]:
    """The policy and the file's other keys."""
    payload = _load_json(path)
    params = _record(PolicyParams, payload, path)
    for name in _fields(params):
        del payload[name]
    return params, payload


def write_reward_model(path: str | Path, model: RewardModel) -> None:
    _write_json(path, _fields(model))


def read_reward_model(path: str | Path) -> RewardModel:
    return _record(RewardModel, _load_json(path), path)


def write_csv(path: str | Path, cls: type, records) -> None:
    """A header of the field names of the dataclass ``cls``, then one row per
    record; a float is written as its shortest round-trip decimal and None as
    an empty cell."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for record in records:
            values = (getattr(record, name) for name in names)
            writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in values])


def _trace_cell(hint, cell: str):
    """A trace cell as its EpochRecord type; empty is None where the type allows it."""
    if cell == "" and type(None) in get_args(hint):
        return None
    return int(cell) if hint is int else float(cell)


def write_trace(path: str | Path, trace: TrainTrace) -> None:
    write_csv(path, EpochRecord, trace.records)


def read_trace(path: str | Path) -> TrainTrace:
    hints = get_type_hints(EpochRecord)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != list(hints):
            raise ValueError(f"{path}: unexpected trace columns {header}")
        return TrainTrace(records=[EpochRecord(*map(_trace_cell, hints.values(), row)) for row in reader])
