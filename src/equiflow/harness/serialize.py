"""JSON/CSV codecs for harness reports and configs.

Matrices travel as row-major lists of [re, im] pairs; complex scalars as
[re, im]; reports are JSON with sorted keys so identical configs and seeds
produce bitwise-identical bodies.
"""

import csv
from json.encoder import encode_basestring_ascii

import numpy as np

from ..errors import ConfigInvalid

__all__ = [
    "matrix_to_wire",
    "matrix_from_wire",
    "jsonable",
    "dump_report",
    "write_spectrum_csv",
]


def _complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_wire(M):
    M = np.asarray(M, dtype=complex)
    return [[_complex_to_pair(z) for z in row] for row in M]


def matrix_from_wire(data, what="matrix"):
    try:
        M = np.asarray([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{what}: expected rows of [re, im] pairs ({exc})")
    if M.ndim != 2:
        raise ConfigInvalid(f"{what}: not a matrix")
    return M


def jsonable(obj):
    """Recursively convert report values into JSON-serializable data."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return _complex_to_pair(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_to_wire(obj) if obj.ndim == 2 else [_complex_to_pair(z) for z in obj]
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating,)):
        return _complex_to_pair(complex(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_report(body, wall_time=None):
    """Serialize a report: deterministic body, wall time kept outside it.

    The text is `json.dumps({"report": jsonable(body)}, sort_keys=True,
    indent=2)`, written in one walk of the body by `_encode`."""
    doc = {"report": body}
    if wall_time is not None:
        doc["wall_time_s"] = round(float(wall_time), 6)
    out = []
    _encode(doc, out, "\n")
    return "".join(out)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(obj, out, pad):
    """Append the `json.dumps(jsonable(obj), sort_keys=True, indent=2)` text
    of a report value to the list out; pad is a newline and obj's indent.
    Complex values, ndarrays and numpy scalars are converted as by `jsonable`."""
    if isinstance(obj, float):
        r = float.__repr__(obj)
        out.append(_NONFINITE.get(r, r))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        out.append("[")
        for i, v in enumerate(obj):
            out.append("," + inner if i else inner)
            _encode(v, out, inner)
        out.append(pad + "]" if obj else "]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        out.append("{")
        for i, (k, v) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            out.append(("," if i else "") + inner + encode_basestring_ascii(k) + ": ")
            _encode(v, out, inner)
        out.append(pad + "}" if obj else "}")
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode(_complex_to_pair(obj), out, pad)
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out, pad)  # complex entries become python complex, then pairs
    elif isinstance(obj, (np.integer, np.floating, np.bool_)):
        _encode(obj.item(), out, pad)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_spectrum_csv(path, records, labels):
    """Spectrum CSV: lambda, re_weight_<g>, im_weight_<g>, ... per element."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["lambda"]
        for lab in labels:
            header += [f"re_weight_{lab}", f"im_weight_{lab}"]
        w.writerow(header)
        for lam, weights in records:
            row = [f"{lam:.12g}"]
            for z in weights:
                row += [f"{z.real:.12g}", f"{z.imag:.12g}"]
            w.writerow(row)
