"""Unit tests for the ISA model."""

import pytest

from repro.isa import (
    HASWELL,
    SKYLAKE_SERVER,
    IForm,
    InstructionCategory,
    PortGroup,
    RegisterClass,
    RegisterFile,
    catalog,
    iform,
    iform_names,
)
from repro.isa.instructions import feature_vector
from repro.isa.ports import ALL_UARCHES, PortGroupSpec
from repro.util.errors import ConfigurationError


class TestRegisterFile:
    def test_sixteen_gprs(self):
        assert len(RegisterFile().gprs) == 16

    def test_reserved_registers_excluded_from_pool(self):
        rf = RegisterFile()
        free_names = {reg.name for reg in rf.free_gprs()}
        # Fig. 3 reserves r9 (loop counter), r10 (base), r11 (chase), r8 (mask).
        for reserved in ("r8", "r9", "r10", "r11", "rsp", "rbp"):
            assert reserved not in free_names

    def test_by_name(self):
        assert RegisterFile().by_name("rax").reg_class is RegisterClass.GPR

    def test_unknown_register_raises(self):
        with pytest.raises(ConfigurationError):
            RegisterFile().by_name("r99")

    def test_unknown_reserved_name_raises(self):
        with pytest.raises(ConfigurationError):
            RegisterFile(reserved_names=("bogus",))


class TestCatalog:
    def test_catalog_covers_every_category(self):
        present = {form.category for form in catalog().values()}
        assert present == set(InstructionCategory)

    def test_crc32_is_mul_port_three_cycles(self):
        # The paper's §4.4.2 example: CRC32 takes 3 cycles on port 1 only.
        form = iform("CRC32_r64_r64")
        assert form.latency == 3.0
        assert set(form.port_uops) == {PortGroup.MUL}

    def test_simple_add_is_single_alu_uop(self):
        form = iform("ADD_r64_r64")
        assert form.uops == 1
        assert form.port_uops[PortGroup.ALU] == 1
        assert form.latency == 1.0

    def test_load_forms_read_memory(self):
        assert iform("MOV_r64_m64").reads_mem
        assert not iform("MOV_r64_m64").writes_mem

    def test_store_forms_write_memory(self):
        assert iform("MOV_m64_r64").writes_mem

    def test_lock_forms_flagged(self):
        form = iform("LOCK_ADD_m64_r64")
        assert form.is_lock
        assert form.latency >= 15.0

    def test_rep_forms_have_per_element_cost(self):
        form = iform("REP_MOVSB")
        assert form.is_rep
        assert form.rep_uops_per_element > 0

    def test_branches_flagged(self):
        for name in ("JZ_rel", "JNZ_rel", "JMP_rel", "CALL_rel", "RET"):
            assert iform(name).is_branch

    def test_unknown_iform_raises(self):
        with pytest.raises(ConfigurationError):
            iform("FROB_r64")

    def test_iform_names_filter_by_category(self):
        controls = iform_names(InstructionCategory.CONTROL)
        assert "JZ_rel" in controls
        assert "ADD_r64_r64" not in controls

    def test_all_sizes_positive(self):
        assert all(form.size_bytes > 0 for form in catalog().values())

    def test_invalid_iform_construction(self):
        with pytest.raises(ConfigurationError):
            IForm("BAD", InstructionCategory.CONTROL, (), {}, 1.0)
        with pytest.raises(ConfigurationError):
            IForm("BAD", InstructionCategory.CONTROL, (),
                  {PortGroup.ALU: 1}, -1.0)

    def test_feature_vectors_distinguish_crc_from_add(self):
        assert feature_vector(iform("CRC32_r64_r64")) != feature_vector(
            iform("ADD_r64_r64")
        )

    def test_feature_vector_length_consistent(self):
        lengths = {len(feature_vector(f)) for f in catalog().values()}
        assert len(lengths) == 1


class TestUArch:
    def test_three_uarches_defined(self):
        assert set(ALL_UARCHES) == {"skylake-server", "skylake-client", "haswell"}

    def test_skylake_wider_branch_than_haswell(self):
        skl = SKYLAKE_SERVER.group(PortGroup.BRANCH).ports
        hsw = HASWELL.group(PortGroup.BRANCH).ports
        assert skl > hsw

    def test_haswell_smaller_rob(self):
        assert HASWELL.rob_size < SKYLAKE_SERVER.rob_size

    def test_port_group_cycles(self):
        spec = PortGroupSpec(ports=4)
        assert spec.cycles_for(8) == pytest.approx(2.0)

    def test_divider_not_pipelined(self):
        spec = SKYLAKE_SERVER.group(PortGroup.DIV)
        assert spec.recip_throughput > 1.0

    def test_negative_uops_raise(self):
        with pytest.raises(ConfigurationError):
            PortGroupSpec(ports=1).cycles_for(-1)

    def test_missing_group_raises(self):
        from repro.isa.ports import UArch
        bare = UArch("bare", 4, 4, 4, 100, 10, 10, 15.0, 1024, 12, {})
        with pytest.raises(ConfigurationError):
            bare.group(PortGroup.ALU)
