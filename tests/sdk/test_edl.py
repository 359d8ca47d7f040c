"""EDL data model and parser."""

import pytest
from hypothesis import given, strategies as st

from repro.sdk.edl import (
    Direction,
    EcallDecl,
    EdlError,
    EnclaveDefinition,
    OcallDecl,
    Param,
    copied_bytes,
    format_edl,
    parse_edl,
)


class TestParser:
    def test_minimal_enclave(self):
        definition = parse_edl(
            "enclave { trusted { public void f(void); }; untrusted { }; };"
        )
        assert [e.name for e in definition.ecalls] == ["f"]
        assert definition.ecall("f").public

    def test_private_ecall_requires_allow(self):
        source = """
        enclave {
            trusted { void secret(void); };
            untrusted { void o(void) allow(secret); };
        };
        """
        definition = parse_edl(source)
        assert definition.ecall("secret").private
        assert definition.ocall("o").allowed_ecalls == ("secret",)

    def test_unreachable_private_ecall_rejected(self):
        source = """
        enclave {
            trusted { void secret(void); };
            untrusted { void o(void); };
        };
        """
        with pytest.raises(EdlError, match="private"):
            parse_edl(source)

    def test_pointer_annotations(self):
        source = """
        enclave {
            trusted {
                public int f([in, size=len] uint8_t* buf, size_t len,
                             [out] int* result,
                             [in, out, count=4] long* both,
                             [user_check] void* raw);
            };
            untrusted { };
        };
        """
        params = parse_edl(source).ecall("f").params
        by_name = {p.name: p for p in params}
        assert by_name["buf"].direction is Direction.IN
        assert by_name["buf"].size == "len"
        assert by_name["len"].direction is Direction.VALUE
        assert by_name["result"].direction is Direction.OUT
        assert by_name["both"].direction is Direction.INOUT
        assert by_name["both"].count == 4
        assert by_name["raw"].direction is Direction.USER_CHECK

    def test_string_annotation(self):
        source = """
        enclave {
            trusted { public void f([in, string] char* msg); };
            untrusted { };
        };
        """
        param = parse_edl(source).ecall("f").params[0]
        assert param.is_string and param.direction is Direction.IN

    def test_bare_pointer_rejected(self):
        source = """
        enclave {
            trusted { public void f(char* p); };
            untrusted { };
        };
        """
        with pytest.raises(EdlError, match="user_check"):
            parse_edl(source)

    def test_comments_ignored(self):
        source = """
        enclave {
            // line comment
            trusted { /* block */ public void f(void); };
            untrusted { };
        };
        """
        assert parse_edl(source).has_ecall("f")

    def test_allow_unknown_ecall_rejected(self):
        source = """
        enclave {
            trusted { public void f(void); };
            untrusted { void o(void) allow(ghost); };
        };
        """
        with pytest.raises(EdlError, match="ghost"):
            parse_edl(source)

    def test_numeric_size_literal(self):
        source = """
        enclave {
            trusted { public void f([in, size=64] uint8_t* p); };
            untrusted { };
        };
        """
        assert parse_edl(source).ecall("f").params[0].size == 64

    def test_garbage_rejected(self):
        with pytest.raises(EdlError):
            parse_edl("enclave { nonsense { }; };")
        with pytest.raises(EdlError):
            parse_edl("enclave { trusted { public void f(void) }; };")  # missing ;
        with pytest.raises(EdlError):
            parse_edl("enclave { trusted { }; untrusted { }; }; extra")

    def test_multi_token_types(self):
        source = """
        enclave {
            trusted { public unsigned long long f([in, size=8] const uint8_t* p); };
            untrusted { };
        };
        """
        decl = parse_edl(source).ecall("f")
        assert decl.return_type == "unsigned long long"
        assert decl.params[0].ctype == "const uint8_t *".replace(" *", "*") or "*" in decl.params[0].ctype


class TestRoundTrip:
    def test_format_then_parse(self):
        source = """
        enclave {
            trusted {
                public int encrypt([in, size=n] uint8_t* data, size_t n);
                void helper(void);
            };
            untrusted {
                int write_out([in, size=n] uint8_t* d, size_t n) allow(helper);
                void log([in, string] char* msg);
            };
        };
        """
        first = parse_edl(source)
        second = parse_edl(format_edl(first))
        assert [e.name for e in first.ecalls] == [e.name for e in second.ecalls]
        assert [o.allowed_ecalls for o in first.ocalls] == [
            o.allowed_ecalls for o in second.ocalls
        ]
        assert format_edl(first) == format_edl(second)


class TestFusedDecls:
    """The optimizer's generated declarations survive EDL round trips."""

    SOURCE = """
    enclave {
        trusted { public int ecall_io(void); };
        untrusted {
            long ocall_lseek(int fd, long offset);
            int ocall_write(int fd, [in, size=len] uint8_t* buf, size_t len);
        };
    };
    """

    def test_fuse_merges_params_with_prefixes(self):
        from repro.sdk.edl import fuse_ocall_decls

        definition = parse_edl(self.SOURCE)
        fused = fuse_ocall_decls(
            definition.ocall("ocall_lseek"),
            definition.ocall("ocall_write"),
            "ocall_lseek__ocall_write",
        )
        names = [p.name for p in fused.params]
        assert names == ["p_fd", "p_offset", "c_fd", "c_buf", "c_len"]
        # The child's size reference is rewritten to the prefixed name.
        by_name = {p.name: p for p in fused.params}
        assert by_name["c_buf"].size == "c_len"
        assert by_name["c_buf"].direction is Direction.IN

    def test_fused_decl_round_trips_through_format(self):
        from repro.sdk.edl import fuse_ocall_decls

        definition = parse_edl(self.SOURCE)
        definition.add_ocall(
            fuse_ocall_decls(
                definition.ocall("ocall_lseek"),
                definition.ocall("ocall_write"),
                "ocall_lseek__ocall_write",
            )
        )
        reparsed = parse_edl(format_edl(definition))
        assert reparsed.has_ocall("ocall_lseek__ocall_write")
        assert format_edl(reparsed) == format_edl(definition)

    def test_appended_decls_keep_existing_indices(self):
        """Mutating a parsed definition must never renumber dispatch ids."""
        from repro.sdk.edger8r import SYNC_OCALL_NAMES, add_sdk_sync_ocalls
        from repro.sdk.edl import fuse_ocall_decls

        definition = parse_edl(self.SOURCE)
        add_sdk_sync_ocalls(definition)
        before_ecalls = {e.name: definition.ecall_index(e.name) for e in definition.ecalls}
        before_ocalls = {o.name: definition.ocall_index(o.name) for o in definition.ocalls}
        assert set(SYNC_OCALL_NAMES) <= set(before_ocalls)

        definition.add_ocall(
            fuse_ocall_decls(
                definition.ocall("ocall_lseek"),
                definition.ocall("ocall_write"),
                "ocall_lseek__ocall_write",
            )
        )
        definition.add_ecall(EcallDecl(name="ecall_switchless_worker"))
        for name, index in before_ecalls.items():
            assert definition.ecall_index(name) == index
        for name, index in before_ocalls.items():
            assert definition.ocall_index(name) == index
        # Generated decls are appended strictly after the originals.
        assert definition.ocall_index("ocall_lseek__ocall_write") == len(before_ocalls)
        assert definition.ecall_index("ecall_switchless_worker") == len(before_ecalls)

    def test_sync_ocalls_idempotent(self):
        from repro.sdk.edger8r import add_sdk_sync_ocalls

        definition = parse_edl(self.SOURCE)
        add_sdk_sync_ocalls(definition)
        count = len(definition.ocalls)
        add_sdk_sync_ocalls(definition)
        assert len(definition.ocalls) == count


class TestDefinitionModel:
    def test_indices_follow_declaration_order(self):
        definition = EnclaveDefinition()
        definition.add_ecall(EcallDecl(name="a"))
        definition.add_ecall(EcallDecl(name="b"))
        assert definition.ecall_index("a") == 0
        assert definition.ecall_index("b") == 1

    def test_duplicate_names_rejected(self):
        definition = EnclaveDefinition()
        definition.add_ecall(EcallDecl(name="a"))
        with pytest.raises(EdlError):
            definition.add_ecall(EcallDecl(name="a"))

    def test_unknown_lookup_raises(self):
        with pytest.raises(EdlError):
            EnclaveDefinition().ecall_index("ghost")

    def test_user_check_params_enumeration(self):
        definition = EnclaveDefinition()
        definition.add_ecall(
            EcallDecl(
                name="e",
                params=(Param("p", "void*", direction=Direction.USER_CHECK),),
            )
        )
        found = definition.user_check_params()
        assert found == [("ecall", "e", definition.ecall("e").params[0])]

    def test_resolve_size_by_reference(self):
        param = Param("buf", "uint8_t*", direction=Direction.IN, size="n")
        assert param.resolve_size({"n": 100}, b"xx") == 100

    def test_resolve_size_from_bytes(self):
        param = Param("buf", "uint8_t*", direction=Direction.IN)
        assert param.resolve_size({}, b"12345") == 5

    def test_resolve_size_with_count(self):
        param = Param("buf", "x*", direction=Direction.IN, size=8, count="k")
        assert param.resolve_size({"k": 3}, None) == 24


def _resolved_bytes(decl, args, direction):
    """The copy-cost rule stated directly: resolve_size over matching params."""
    args_by_name = {param.name: value for param, value in zip(decl.params, args)}
    return sum(
        param.resolve_size(args_by_name, value)
        for param, value in zip(decl.params, args)
        if param.direction in (direction, Direction.INOUT)
    )


class TestCopyPlan:
    DECL = EcallDecl(
        name="e",
        params=(
            Param("buf", "uint8_t*", direction=Direction.IN, size="n"),
            Param("n", "size_t"),
            Param("dst", "rec_t*", direction=Direction.OUT, size="s", count="c"),
            Param("s", "size_t"),
            Param("c", "size_t"),
            Param("msg", "char*", direction=Direction.IN, is_string=True),
            Param("raw", "void*", direction=Direction.USER_CHECK),
            Param("io", "uint8_t*", direction=Direction.INOUT, size=16, count=2),
            Param("blob", "uint8_t*", direction=Direction.INOUT, size="ghost"),
        ),
    )
    ARGS = [
        (b"abc", 100, None, 12, 3, "hello", object(), bytearray(4), memoryview(b"xyz")),
        (b"abc", -5, None, 12, None, b"", None, None, 7),
        (b"abc", "n", None, True, 0, None, None, None, None),
        (b"abc", 4, b"xx"),  # fewer arguments than parameters
        (),
    ]

    @pytest.mark.parametrize("args", ARGS)
    @pytest.mark.parametrize("direction", [Direction.IN, Direction.OUT])
    def test_plan_equals_resolve_size(self, args, direction):
        plan = self.DECL.copies_in if direction is Direction.IN else self.DECL.copies_out
        assert copied_bytes(plan, args) == _resolved_bytes(self.DECL, args, direction)

    def test_plan_lists_copied_params_with_fixed_sizes(self):
        assert [(entry[0], entry[1]) for entry in self.DECL.copies_in] == [
            (0, None),  # [in, size=n]: sized by argument 1
            (5, None),  # [in, string]: sized by its value
            (7, 32),  # [in, out, size=16, count=2]: fixed by the declaration
            (8, None),  # size= names no parameter: sized by its value
        ]
        assert [entry[0] for entry in self.DECL.copies_out] == [2, 7, 8]

    def test_plan_is_built_once_per_declaration(self):
        assert self.DECL.copies_in is self.DECL.copies_in
        assert OcallDecl(name="o").copies_out == ()

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-4, 64), st.binary(max_size=8), st.text(max_size=4)),
            max_size=9,
        )
    )
    def test_plan_equals_resolve_size_for_any_arguments(self, values):
        args = tuple(values)
        plans = ((Direction.IN, self.DECL.copies_in), (Direction.OUT, self.DECL.copies_out))
        for direction, plan in plans:
            assert copied_bytes(plan, args) == _resolved_bytes(self.DECL, args, direction)


@given(
    st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
def test_generated_definitions_round_trip(names):
    definition = EnclaveDefinition()
    for name in names:
        definition.add_ecall(EcallDecl(name=f"ecall_{name}"))
    for name in names:
        definition.add_ocall(OcallDecl(name=f"ocall_{name}"))
    reparsed = parse_edl(format_edl(definition))
    assert [e.name for e in reparsed.ecalls] == [f"ecall_{n}" for n in names]
    assert [o.name for o in reparsed.ocalls] == [f"ocall_{n}" for n in names]
