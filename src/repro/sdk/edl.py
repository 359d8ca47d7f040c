"""The Enclave Description Language: data model and parser.

Enclave developers describe their interface in an EDL file (paper §2.2):
*trusted* functions (ecalls, optionally ``public``) and *untrusted*
functions (ocalls, each with an ``allow(...)`` list of ecalls callable
while it runs).  Pointer parameters carry marshalling annotations —
``[in]``, ``[out]``, ``[in, out]`` or ``[user_check]`` — plus ``size=`` /
``count=`` / ``string`` qualifiers.

The analyser consumes this model for its security hints (§3.6, §4.3.2):
which ecalls could be private, which allow-lists are wider than observed
behaviour, and which pointers are ``user_check`` and deserve scrutiny.

Example accepted by :func:`parse_edl`::

    enclave {
        trusted {
            public int ecall_encrypt([in, size=len] uint8_t* buf, size_t len);
            void ecall_helper(void);
        };
        untrusted {
            int ocall_write([in, size=n] uint8_t* p, size_t n) allow(ecall_helper);
            void ocall_log([in, string] char* msg);
        };
    };
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Union


class Direction(enum.Enum):
    """Pointer marshalling behaviour across the enclave boundary."""

    VALUE = "value"  # not a pointer: passed by value
    IN = "in"  # copied toward the callee before the call
    OUT = "out"  # copied back toward the caller after the call
    INOUT = "inout"
    USER_CHECK = "user_check"  # no copy; developer's responsibility


@dataclass(frozen=True)
class Param:
    """One declared parameter of an ecall or ocall."""

    name: str
    ctype: str
    direction: Direction = Direction.VALUE
    size: Optional[Union[int, str]] = None  # byte count or name of a size param
    count: Optional[Union[int, str]] = None
    is_string: bool = False

    @property
    def is_pointer(self) -> bool:
        """Whether the parameter crosses the boundary as a pointer."""
        return self.direction is not Direction.VALUE

    def resolve_size(self, args_by_name: dict[str, object], value: object) -> int:
        """Best-effort byte size of this parameter at call time.

        Used for boundary copy-cost accounting: explicit ``size=``/``count=``
        win; otherwise the length of a bytes-like argument; otherwise a
        machine word.
        """
        size = self.size
        if isinstance(size, str):
            size = args_by_name.get(size)
        count = self.count
        if isinstance(count, str):
            count = args_by_name.get(count)
        return _sized(size, count, value)


def _sized(size: object, count: object, value: object) -> int:
    """:meth:`Param.resolve_size` once ``size=``/``count=`` references are resolved."""
    if isinstance(size, int):
        total = size * (count if isinstance(count, int) else 1)
        return max(0, int(total))
    if isinstance(value, (bytes, bytearray, memoryview, str)):
        return len(value)
    return 8


# One entry of a copy plan: (argument position, byte size if the
# declaration fixes it else None, declared size, position of the argument
# ``size=`` names, declared count, position of the argument ``count=`` names).
CopyEntry = tuple[int, Optional[int], Optional[int], Optional[int], Optional[int], Optional[int]]


def _copy_plan(
    params: tuple[Param, ...], directions: tuple[Direction, ...]
) -> tuple[CopyEntry, ...]:
    """Precompute how to size the parameters whose direction is in ``directions``.

    Symbolic ``size=``/``count=`` qualifiers become argument positions, and
    a size the declaration fixes is computed here once, so that
    :func:`copied_bytes` needs no per-call name lookup.
    """
    positions = {param.name: i for i, param in enumerate(params)}

    def reference(spec):
        if isinstance(spec, str):
            return None, positions.get(spec)
        return spec, None

    entries = []
    for index, param in enumerate(params):
        if param.direction not in directions:
            continue
        size, size_at = reference(param.size)
        count, count_at = reference(param.count)
        fixed = _sized(size, count, None) if isinstance(size, int) and count_at is None else None
        entries.append((index, fixed, size, size_at, count, count_at))
    return tuple(entries)


def copied_bytes(plan: tuple[CopyEntry, ...], args: tuple) -> int:
    """Bytes a call with ``args`` copies: :meth:`Param.resolve_size` summed over ``plan``."""
    n = len(args)
    total = 0
    for index, fixed, size, size_at, count, count_at in plan:
        if index >= n:
            break
        if fixed is not None:
            total += fixed
            continue
        if size_at is not None:
            size = args[size_at] if size_at < n else None
        if count_at is not None:
            count = args[count_at] if count_at < n else None
        total += _sized(size, count, args[index])
    return total


class _Marshalled:
    """The copy plans of a declaration, built on first use."""

    @cached_property
    def copies_in(self) -> tuple[CopyEntry, ...]:
        """Parameters copied toward the callee: ``[in]`` and ``[in, out]``."""
        return _copy_plan(self.params, (Direction.IN, Direction.INOUT))

    @cached_property
    def copies_out(self) -> tuple[CopyEntry, ...]:
        """Parameters copied back toward the caller: ``[out]`` and ``[in, out]``."""
        return _copy_plan(self.params, (Direction.OUT, Direction.INOUT))


@dataclass(frozen=True)
class EcallDecl(_Marshalled):
    """A trusted function reachable from the untrusted application."""

    name: str
    return_type: str = "void"
    params: tuple[Param, ...] = ()
    public: bool = True

    @property
    def private(self) -> bool:
        """Private ecalls may only be issued during an allowing ocall (§3.6)."""
        return not self.public


@dataclass(frozen=True)
class OcallDecl(_Marshalled):
    """An untrusted function reachable from inside the enclave."""

    name: str
    return_type: str = "void"
    params: tuple[Param, ...] = ()
    allowed_ecalls: tuple[str, ...] = ()


class EdlError(ValueError):
    """Malformed EDL source or inconsistent interface definition."""


@dataclass
class EnclaveDefinition:
    """A complete enclave interface: ordered ecalls and ocalls.

    Order matters: the generated numeric identifiers (the indices the URTS
    and TRTS dispatch on) are positions in these lists, exactly like
    ``sgx_edger8r`` output.
    """

    name: str = "enclave"
    ecalls: list[EcallDecl] = field(default_factory=list)
    ocalls: list[OcallDecl] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ecall_index: dict[str, int] = {}
        self._ocall_index: dict[str, int] = {}
        self._reindex()

    def _reindex(self) -> None:
        self._ecall_index = {decl.name: i for i, decl in enumerate(self.ecalls)}
        self._ocall_index = {decl.name: i for i, decl in enumerate(self.ocalls)}

    def add_ecall(self, decl: EcallDecl) -> int:
        """Append an ecall; returns its numeric identifier."""
        if decl.name in self._ecall_index:
            raise EdlError(f"duplicate ecall {decl.name!r}")
        self.ecalls.append(decl)
        self._ecall_index[decl.name] = len(self.ecalls) - 1
        return self._ecall_index[decl.name]

    def add_ocall(self, decl: OcallDecl) -> int:
        """Append an ocall; returns its numeric identifier."""
        if decl.name in self._ocall_index:
            raise EdlError(f"duplicate ocall {decl.name!r}")
        self.ocalls.append(decl)
        self._ocall_index[decl.name] = len(self.ocalls) - 1
        return self._ocall_index[decl.name]

    def ecall_index(self, name: str) -> int:
        """Numeric identifier of the named ecall."""
        try:
            return self._ecall_index[name]
        except KeyError:
            raise EdlError(f"unknown ecall {name!r}") from None

    def ocall_index(self, name: str) -> int:
        """Numeric identifier of the named ocall."""
        try:
            return self._ocall_index[name]
        except KeyError:
            raise EdlError(f"unknown ocall {name!r}") from None

    def ecall(self, name: str) -> EcallDecl:
        """Declaration of the named ecall."""
        return self.ecalls[self.ecall_index(name)]

    def ocall(self, name: str) -> OcallDecl:
        """Declaration of the named ocall."""
        return self.ocalls[self.ocall_index(name)]

    def has_ecall(self, name: str) -> bool:
        """Whether an ecall of this name exists."""
        return name in self._ecall_index

    def has_ocall(self, name: str) -> bool:
        """Whether an ocall of this name exists."""
        return name in self._ocall_index

    def validate(self) -> None:
        """Check cross-references: every ``allow(...)`` names a real ecall."""
        for ocall in self.ocalls:
            for allowed in ocall.allowed_ecalls:
                if allowed not in self._ecall_index:
                    raise EdlError(
                        f"ocall {ocall.name!r} allows unknown ecall {allowed!r}"
                    )
        private_unreachable = [
            e.name
            for e in self.ecalls
            if e.private
            and not any(e.name in o.allowed_ecalls for o in self.ocalls)
        ]
        if private_unreachable:
            raise EdlError(
                "private ecalls not allowed by any ocall: "
                + ", ".join(private_unreachable)
            )

    def user_check_params(self) -> list[tuple[str, str, Param]]:
        """All ``user_check`` pointers: (call kind, call name, param)."""
        found = []
        for ecall in self.ecalls:
            for param in ecall.params:
                if param.direction is Direction.USER_CHECK:
                    found.append(("ecall", ecall.name, param))
        for ocall in self.ocalls:
            for param in ocall.params:
                if param.direction is Direction.USER_CHECK:
                    found.append(("ocall", ocall.name, param))
        return found


def _prefix_params(params: Iterable[Param], prefix: str) -> tuple[Param, ...]:
    """Rename parameters with ``prefix``, fixing up symbolic size/count refs.

    ``size=len`` style qualifiers name sibling parameters; when the
    parameters are renamed for a merged declaration the references must
    follow, or copy-cost accounting would silently fall back to
    word-size.
    """
    renamed = []
    for param in params:
        size = param.size
        if isinstance(size, str):
            size = prefix + size
        count = param.count
        if isinstance(count, str):
            count = prefix + count
        renamed.append(
            Param(
                name=prefix + param.name,
                ctype=param.ctype,
                direction=param.direction,
                size=size,
                count=count,
                is_string=param.is_string,
            )
        )
    return tuple(renamed)


def fuse_ocall_decls(
    parent: OcallDecl, child: OcallDecl, name: Optional[str] = None
) -> OcallDecl:
    """Merge an SDSC ocall pair into one declaration (paper §5.2.2).

    The fused call carries both parameter lists (prefixed ``p_``/``c_`` so
    names cannot collide and ``size=`` references stay resolvable), keeps
    the child's return type — the parent's result is predicted on the
    trusted side — and unions the two allow lists.
    """
    fused_name = name or f"{parent.name}__{child.name}"
    allowed = tuple(
        dict.fromkeys(tuple(parent.allowed_ecalls) + tuple(child.allowed_ecalls))
    )
    return OcallDecl(
        name=fused_name,
        return_type=child.return_type,
        params=_prefix_params(parent.params, "p_") + _prefix_params(child.params, "c_"),
        allowed_ecalls=allowed,
    )


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\];,*=])
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(source: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise EdlError(f"unexpected character {source[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup != "ws":
            tokens.append(match.group())
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise EdlError("unexpected end of EDL source")
        self._pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise EdlError(f"expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self._pos += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse(self) -> EnclaveDefinition:
        self.expect("enclave")
        self.expect("{")
        definition = EnclaveDefinition()
        while not self.accept("}"):
            section = self.next()
            if section == "trusted":
                self._parse_trusted(definition)
            elif section == "untrusted":
                self._parse_untrusted(definition)
            else:
                raise EdlError(f"unexpected section {section!r}")
        self.expect(";")
        if self.peek() is not None:
            raise EdlError(f"trailing input starting at {self.peek()!r}")
        definition.validate()
        return definition

    def _parse_trusted(self, definition: EnclaveDefinition) -> None:
        self.expect("{")
        while not self.accept("}"):
            public = self.accept("public")
            return_type, name = self._parse_type_and_name()
            params = self._parse_params()
            self.expect(";")
            definition.add_ecall(
                EcallDecl(name=name, return_type=return_type, params=params, public=public)
            )
        self.expect(";")

    def _parse_untrusted(self, definition: EnclaveDefinition) -> None:
        self.expect("{")
        while not self.accept("}"):
            return_type, name = self._parse_type_and_name()
            params = self._parse_params()
            allowed: tuple[str, ...] = ()
            if self.accept("allow"):
                self.expect("(")
                names: list[str] = []
                while not self.accept(")"):
                    names.append(self.next())
                    self.accept(",")
                allowed = tuple(names)
            self.expect(";")
            definition.add_ocall(
                OcallDecl(
                    name=name,
                    return_type=return_type,
                    params=params,
                    allowed_ecalls=allowed,
                )
            )
        self.expect(";")

    def _parse_type_and_name(self) -> tuple[str, str]:
        parts = [self.next()]
        while self.peek() not in ("(",):
            parts.append(self.next())
        name = parts.pop()
        if not parts:
            raise EdlError(f"missing return type before {name!r}")
        return " ".join(parts), name

    def _parse_params(self) -> tuple[Param, ...]:
        self.expect("(")
        params: list[Param] = []
        if self.accept(")"):
            return ()
        if self.peek() == "void":
            save = self._pos
            self.next()
            if self.accept(")"):
                return ()
            self._pos = save
        while True:
            params.append(self._parse_param())
            if self.accept(")"):
                break
            self.expect(",")
        return tuple(params)

    def _parse_param(self) -> Param:
        direction = Direction.VALUE
        size: Optional[Union[int, str]] = None
        count: Optional[Union[int, str]] = None
        is_string = False
        saw_in = saw_out = False
        if self.accept("["):
            while not self.accept("]"):
                attr = self.next()
                if attr == "in":
                    saw_in = True
                elif attr == "out":
                    saw_out = True
                elif attr == "user_check":
                    direction = Direction.USER_CHECK
                elif attr == "string":
                    is_string = True
                elif attr in ("size", "count"):
                    self.expect("=")
                    value = self.next()
                    parsed: Union[int, str] = int(value) if value.isdigit() else value
                    if attr == "size":
                        size = parsed
                    else:
                        count = parsed
                else:
                    raise EdlError(f"unknown pointer attribute {attr!r}")
                self.accept(",")
            if direction is Direction.VALUE:
                if saw_in and saw_out:
                    direction = Direction.INOUT
                elif saw_in:
                    direction = Direction.IN
                elif saw_out:
                    direction = Direction.OUT
                elif is_string:
                    direction = Direction.IN
                else:
                    raise EdlError("bracketed parameter without direction")
        # Type tokens until the final identifier (the parameter name).
        parts = [self.next()]
        while self.peek() not in (",", ")"):
            parts.append(self.next())
        name = parts.pop()
        if not parts:
            raise EdlError(f"missing type for parameter {name!r}")
        ctype = " ".join(parts)
        is_pointer_type = "*" in ctype
        if is_pointer_type and direction is Direction.VALUE:
            # A bare pointer without annotations behaves like user_check in
            # spirit; the SDK rejects it, and so do we.
            raise EdlError(
                f"pointer parameter {name!r} needs [in]/[out]/[user_check]"
            )
        return Param(
            name=name,
            ctype=ctype,
            direction=direction,
            size=size,
            count=count,
            is_string=is_string,
        )


def parse_edl(source: str) -> EnclaveDefinition:
    """Parse EDL source text into an :class:`EnclaveDefinition`."""
    return _Parser(_tokenize(source)).parse()


def format_edl(definition: EnclaveDefinition) -> str:
    """Render a definition back to EDL source (round-trips with the parser)."""

    def render_param(param: Param) -> str:
        attrs: list[str] = []
        if param.direction is Direction.IN:
            attrs.append("in")
        elif param.direction is Direction.OUT:
            attrs.append("out")
        elif param.direction is Direction.INOUT:
            attrs.extend(["in", "out"])
        elif param.direction is Direction.USER_CHECK:
            attrs.append("user_check")
        if param.is_string:
            attrs.append("string")
        if param.size is not None:
            attrs.append(f"size={param.size}")
        if param.count is not None:
            attrs.append(f"count={param.count}")
        prefix = f"[{', '.join(attrs)}] " if attrs else ""
        return f"{prefix}{param.ctype} {param.name}"

    lines = ["enclave {", "    trusted {"]
    for ecall in definition.ecalls:
        vis = "public " if ecall.public else ""
        args = ", ".join(render_param(p) for p in ecall.params) or "void"
        lines.append(f"        {vis}{ecall.return_type} {ecall.name}({args});")
    lines.append("    };")
    lines.append("    untrusted {")
    for ocall in definition.ocalls:
        args = ", ".join(render_param(p) for p in ocall.params) or "void"
        allow = (
            f" allow({', '.join(ocall.allowed_ecalls)})" if ocall.allowed_ecalls else ""
        )
        lines.append(f"        {ocall.return_type} {ocall.name}({args}){allow};")
    lines.append("    };")
    lines.append("};")
    return "\n".join(lines)
