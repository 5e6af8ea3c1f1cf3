"""C <-> ctypes ABI cross-checker for the native kernel.

The compiled kernel (``core/ensemble_kernel.c`` plus
``_kernel_common.h``) marks every exported function with the ``REPRO_ABI``
macro; :mod:`repro.core.native` declares each symbol's ``ctypes``
signature as data in :data:`~repro.core.native.KERNEL_ABI`.  This module
parses the marked C definitions (no compiler needed) and verifies, per
symbol:

* **presence** — every declared symbol exists in its source file, and
  every marked C export has a Python declaration;
* **arity and argument order** — parameter-by-parameter;
* **integer widths and signedness** — ``int64_t`` vs ``int32_t`` vs
  ``uint8_t`` etc., including pointee types of pointer parameters.

Types compare through a normalized descriptor (pointer-ness, kind,
width), so aliases that are genuinely the same ABI (``int`` vs
``int32_t`` on the supported platforms) do not false-positive, while a
drifted width (``int32_t *`` vs ``int64_t *``) always fires.
"""

from __future__ import annotations

import ctypes
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .findings import Finding

__all__ = [
    "CParam",
    "CFunction",
    "parse_exported_functions",
    "compare_symbol",
    "check_abi",
]


@dataclass(frozen=True)
class CParam:
    """One parameter of an exported C function (normalized spelling)."""

    name: str
    type: str  # e.g. "const int32_t *" -> "int32_t*"


@dataclass(frozen=True)
class CFunction:
    """One ``REPRO_ABI``-marked function definition."""

    name: str
    return_type: str
    params: Tuple[CParam, ...]
    path: str
    line: int


# --------------------------------------------------------------------
# C source parsing
# --------------------------------------------------------------------
def _strip_comments(text: str) -> str:
    """Blank out comments, preserving every newline (line numbers hold)."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    text = re.sub(r"//[^\n]*", blank, text)
    # Preprocessor lines go too: `#define REPRO_ABI` itself would
    # otherwise seed a bogus match that swallows the next definition.
    text = re.sub(r"(?m)^[ \t]*#[^\n]*", blank, text)
    return text


_EXPORT_RE = re.compile(
    r"\bREPRO_ABI\s+(?P<ret>[A-Za-z_][A-Za-z0-9_ \t]*?[ \t*]+)"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<params>[^)]*)\)",
    flags=re.S,
)


def _normalize_type(tokens: Sequence[str], pointer: bool) -> str:
    base = " ".join(t for t in tokens if t not in ("const", "volatile"))
    return f"{base}*" if pointer else base


def _parse_param(raw: str) -> Optional[CParam]:
    raw = raw.strip()
    if not raw or raw == "void":
        return None
    pointer = "*" in raw
    raw = raw.replace("*", " ")
    tokens = raw.split()
    if len(tokens) < 2:
        # e.g. an unnamed parameter — keep the type, synthesize a name
        return CParam(name="<unnamed>", type=_normalize_type(tokens, pointer))
    *type_tokens, name = tokens
    return CParam(name=name, type=_normalize_type(type_tokens, pointer))


def parse_exported_functions(path: Path) -> List[CFunction]:
    """All ``REPRO_ABI``-marked function definitions in one C file."""
    text = _strip_comments(Path(path).read_text())
    functions: List[CFunction] = []
    for match in _EXPORT_RE.finditer(text):
        params = [
            p
            for p in (
                _parse_param(raw) for raw in match.group("params").split(",")
            )
            if p is not None
        ]
        ret_tokens = match.group("ret").replace("*", " * ").split()
        pointer = "*" in ret_tokens
        return_type = _normalize_type(
            [t for t in ret_tokens if t != "*"], pointer
        )
        functions.append(
            CFunction(
                name=match.group("name"),
                return_type=return_type,
                params=tuple(params),
                path=str(path),
                line=text.count("\n", 0, match.start()) + 1,
            )
        )
    return functions


# --------------------------------------------------------------------
# Type descriptors: the common language both sides normalize into
# --------------------------------------------------------------------
@dataclass(frozen=True)
class _TypeDesc:
    pointer: bool
    kind: str  # "int" | "uint" | "float" | "void"
    size: int  # bytes of the scalar (or pointee); 0 for void

    def render(self) -> str:
        if self.kind == "void":
            return "void*" if self.pointer else "void"
        width = self.size * 8
        base = {"int": f"int{width}", "uint": f"uint{width}", "float": f"float{width}"}[
            self.kind
        ]
        return f"{base}*" if self.pointer else base


#: C scalar type name -> (kind, size).  Covers the spellings the kernels
#: use; extend as the kernels grow.
_C_SCALARS: Dict[str, Tuple[str, int]] = {
    "int8_t": ("int", 1),
    "int16_t": ("int", 2),
    "int32_t": ("int", 4),
    "int64_t": ("int", 8),
    "uint8_t": ("uint", 1),
    "uint16_t": ("uint", 2),
    "uint32_t": ("uint", 4),
    "uint64_t": ("uint", 8),
    "char": ("int", 1),
    "int": ("int", ctypes.sizeof(ctypes.c_int)),
    "unsigned": ("uint", ctypes.sizeof(ctypes.c_uint)),
    "unsigned int": ("uint", ctypes.sizeof(ctypes.c_uint)),
    "long": ("int", ctypes.sizeof(ctypes.c_long)),
    "unsigned long": ("uint", ctypes.sizeof(ctypes.c_ulong)),
    "size_t": ("uint", ctypes.sizeof(ctypes.c_size_t)),
    "float": ("float", 4),
    "double": ("float", 8),
    "void": ("void", 0),
}


def _desc_of_c(type_name: str) -> Optional[_TypeDesc]:
    pointer = type_name.endswith("*")
    base = type_name.rstrip("*").strip()
    if base not in _C_SCALARS:
        return None
    kind, size = _C_SCALARS[base]
    return _TypeDesc(pointer=pointer, kind=kind, size=size)


def _desc_of_ctypes(tp: object) -> Optional[_TypeDesc]:
    if tp is None:
        return _TypeDesc(pointer=False, kind="void", size=0)
    if isinstance(tp, type) and issubclass(tp, ctypes._Pointer):
        inner = _desc_of_ctypes(tp._type_)
        if inner is None or inner.pointer:
            return None
        return _TypeDesc(pointer=True, kind=inner.kind, size=inner.size)
    if tp is ctypes.c_void_p:
        return _TypeDesc(pointer=True, kind="void", size=0)
    if isinstance(tp, type) and issubclass(tp, ctypes._SimpleCData):
        code = getattr(tp, "_type_", "")
        size = ctypes.sizeof(tp)
        if code in ("f", "d", "g"):
            return _TypeDesc(pointer=False, kind="float", size=size)
        if code in ("b", "h", "i", "l", "q", "n"):
            return _TypeDesc(pointer=False, kind="int", size=size)
        if code in ("B", "H", "I", "L", "Q", "N", "P"):
            return _TypeDesc(pointer=False, kind="uint", size=size)
    return None


# --------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------
def compare_symbol(cfunc: CFunction, abi) -> List[Finding]:
    """Cross-check one C definition against its ``SymbolABI`` mirror.

    ``abi`` is a :class:`repro.core.native.SymbolABI` (duck-typed:
    ``name``/``argtypes``/``restype``).
    """
    findings: List[Finding] = []

    def flag(message: str) -> None:
        findings.append(
            Finding(cfunc.path, cfunc.line, "ABI", "abi-drift", message)
        )

    if len(cfunc.params) != len(abi.argtypes):
        flag(
            f"{cfunc.name}: C declares {len(cfunc.params)} parameter(s), "
            f"ctypes argtypes declares {len(abi.argtypes)}"
        )
        return findings  # positional comparison is meaningless past this
    for index, (param, argtype) in enumerate(zip(cfunc.params, abi.argtypes)):
        c_desc = _desc_of_c(param.type)
        py_desc = _desc_of_ctypes(argtype)
        if c_desc is None:
            flag(
                f"{cfunc.name} parameter {index} ({param.name!r}): "
                f"unrecognized C type {param.type!r} — teach "
                "repro.lint.abi about it"
            )
            continue
        if py_desc is None:
            flag(
                f"{cfunc.name} parameter {index} ({param.name!r}): "
                f"unrecognized ctypes argtype {argtype!r}"
            )
            continue
        if c_desc != py_desc:
            flag(
                f"{cfunc.name} parameter {index} ({param.name!r}): C side is "
                f"{c_desc.render()} ({param.type}), ctypes side is "
                f"{py_desc.render()}"
            )
    c_ret = _desc_of_c(cfunc.return_type)
    py_ret = _desc_of_ctypes(abi.restype)
    if c_ret is None:
        flag(f"{cfunc.name}: unrecognized C return type {cfunc.return_type!r}")
    elif py_ret is None:
        flag(f"{cfunc.name}: unrecognized ctypes restype {abi.restype!r}")
    elif c_ret != py_ret:
        flag(
            f"{cfunc.name}: C returns {c_ret.render()}, ctypes restype is "
            f"{py_ret.render()}"
        )
    return findings


def check_abi(symbols: Optional[Mapping[str, object]] = None) -> List[Finding]:
    """Cross-validate every declared kernel symbol against its C source.

    ``symbols`` defaults to :func:`repro.core.native.kernel_abi`; tests
    pass a mapping with deliberately wrong entries.
    """
    if symbols is None:
        from ..core.native import kernel_abi

        symbols = kernel_abi()
    findings: List[Finding] = []
    by_file: Dict[str, List[object]] = {}
    for abi in symbols.values():
        by_file.setdefault(str(abi.source), []).append(abi)
    for path, abis in sorted(by_file.items()):
        if not Path(path).exists():
            findings.append(
                Finding(path, 0, "ABI", "abi-drift", "kernel source missing")
            )
            continue
        exported = {f.name: f for f in parse_exported_functions(Path(path))}
        if not exported:
            findings.append(
                Finding(
                    path,
                    0,
                    "ABI",
                    "abi-drift",
                    "no REPRO_ABI-marked exports found — the marker is how "
                    "the checker sees the ABI; mark every exported function",
                )
            )
            continue
        declared = {abi.name for abi in abis}
        for abi in sorted(abis, key=lambda a: a.name):
            cfunc = exported.get(abi.name)
            if cfunc is None:
                findings.append(
                    Finding(
                        path,
                        0,
                        "ABI",
                        "abi-drift",
                        f"declared symbol {abi.name!r} has no REPRO_ABI-marked "
                        "definition in this file",
                    )
                )
                continue
            findings.extend(compare_symbol(cfunc, abi))
        for name, cfunc in sorted(exported.items()):
            if name not in declared:
                findings.append(
                    Finding(
                        cfunc.path,
                        cfunc.line,
                        "ABI",
                        "abi-drift",
                        f"C export {name!r} has no ctypes declaration in "
                        "repro.core.native.KERNEL_ABI",
                    )
                )
    return findings
