"""The ``[section]`` / ``key = value`` format (``#`` comments) of configs
and scene manifests. A key table, ``{section: {key: (field, parse)}}``,
names each key once: ``parse(value, where)`` turns its text into the
field's value or raises ConfigError naming ``where``, the key. ``write``
writes what ``read`` gives back exactly: floats as ``repr``, tuples
comma-joined.
"""

from __future__ import annotations

import configparser
import math


class ConfigError(ValueError):
    pass


def scalar(kind, noun: str):
    def parse(value: str, where: str):
        try:
            out = kind(value)
        except ValueError:
            raise ConfigError(f"{where} must be {noun}, got {value!r}") from None
        if kind is float and not math.isfinite(out):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return out
    return parse


def vector(kind, n: int, noun: str):
    def parse(value: str, where: str):
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != n:
            raise ConfigError(f"{where} needs {n} comma-separated values, got {value!r}")
        try:
            out = tuple(kind(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where} has a {noun} entry: {value!r}") from None
        if kind is float and not all(map(math.isfinite, out)):
            raise ConfigError(f"{where} has a non-finite entry: {value!r}")
        return out
    return parse


integer, number = scalar(int, "an integer"), scalar(float, "a number")


def read(path: str, noun: str, keys, required: bool = False) -> dict:
    """The ``{section: {field: value}}`` that the ``noun`` file at ``path``
    sets, for every section of ``keys``. A section or key not in ``keys`` is
    an error; in a ``required`` read, so is one of ``keys`` the file lacks,
    and each error names the file (a config's name only the key)."""
    # default_section="" names no section a file can hold, so [DEFAULT] is
    # an unknown section like any other, not defaults for every section.
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",), default_section=""
    )
    cp.optionxform = str
    where = f"{noun} {path}: " if required else ""
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read {noun} {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{noun} {path} is not UTF-8 text: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"{where or f'malformed {noun} {path}: '}{e}") from None

    for section in cp.sections():
        if section not in keys:
            raise ConfigError(f"{where}unknown config section [{section}]")
        for key in cp[section]:
            if key not in keys[section]:
                raise ConfigError(f"{where}unknown key {key!r} in section [{section}]")

    out = {section: {} for section in keys}
    for section, rows in keys.items():
        for key, (field, parse) in rows.items():
            if cp.has_option(section, key):
                out[section][field] = parse(cp[section][key], f"{where}[{section}] {key}")
            elif required:
                raise ConfigError(f"{where}missing key {key!r} in section [{section}]")
    return out


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def write(f, keys, sources) -> None:
    """Write each key of ``keys`` to ``f`` with its field of ``sources[section]``."""
    f.write("\n".join(
        f"[{section}]\n" + "".join(
            f"{key} = {_text(getattr(sources[section], field))}\n"
            for key, (field, _) in rows.items()
        )
        for section, rows in keys.items()
    ))
