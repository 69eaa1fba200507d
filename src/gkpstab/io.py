"""Result envelopes, CSV time series, and config parsing for the CLI.

Output contract: every run writes one JSON envelope (config echo, version,
timestamps, payload, wall-clock) plus flat CSV time series with the fixed
column set (t, trace, TrW, jx, jy, jz, nbar). Floats serialize with 17
significant digits; files are written atomically (temp + rename).
"""

import configparser
import dataclasses
import io as _io
import json
import os
import tempfile
import time

import numpy as np

FLOAT_FMT = "%.17g"
CSV_COLUMNS = ("t", "trace", "TrW", "jx", "jy", "jz", "nbar")


def atomic_write_text(path, text):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def envelope(command, config_echo, payload, runtime_s, version):
    return {
        "artifact_version": version,
        "command": command,
        "created_unix": time.time(),
        "config_echo": config_echo,
        "runtime_s": runtime_s,
        "payload": _jsonable(payload),
    }


def write_envelope(path, env):
    atomic_write_text(path, json.dumps(env, indent=2, sort_keys=True) + "\n")


def format_float(x):
    return FLOAT_FMT % float(x)


def trajectory_csv_text(traj):
    """Fixed-column CSV for one trajectory; absent observables become nan."""
    missing = np.full(len(traj.times), np.nan)
    cols = [traj.times] + [traj.records.get(name, missing)
                           for name in ("trace", "lyapunov", "jx", "jy", "jz", "nbar")]
    return table_csv_text(CSV_COLUMNS, zip(*cols))


def table_csv_text(columns, rows):
    buf = _io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(format_float(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def parse_config(path):
    """INI-style config; returns (flat dict with 'section.key' keys, raw text)."""
    with open(path, "r") as fh:
        raw = fh.read()
    cp = configparser.ConfigParser()
    cp.read_string(raw)
    flat = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            flat[f"{section}.{key}"] = val
    return flat, raw

