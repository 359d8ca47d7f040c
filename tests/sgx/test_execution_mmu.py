"""In-enclave execution (AEX slicing) and the MMU permission layer."""

import pytest

from repro.sgx.constants import PatchLevel
from repro.sgx.cpu import SgxCpu
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig, PageType, Permission
from repro.sgx.events import AexReason, PageFaultInfo
from repro.sgx.execution import EnclaveExecution
from repro.sgx.mmu import Mmu, SgxPermissionError
from repro.sim.process import SIGSEGV, SignalFault, SimProcess


@pytest.fixture
def setup():
    process = SimProcess(seed=3)
    device = SgxDevice(process.sim, timer_period_ns=100_000)
    enclave = device.driver.create_enclave(EnclaveConfig(debug=True))
    execution = EnclaveExecution(
        sim=process.sim,
        cpu=device.cpu,
        timer=device.timer,
        driver=device.driver,
        enclave=enclave,
        tcs_slot=0,
    )
    return process, device, enclave, execution


class TestCpu:
    def test_round_trips_match_paper(self):
        assert SgxCpu(PatchLevel.BASELINE).transition_round_trip_ns == 2_130
        assert SgxCpu(PatchLevel.SPECTRE).transition_round_trip_ns == 3_850
        assert SgxCpu(PatchLevel.L1TF).transition_round_trip_ns == 4_890

    def test_eresume_costs_more_than_eenter(self):
        for level in PatchLevel:
            cpu = SgxCpu(level)
            assert cpu.eresume_ns > cpu.eenter_ns

    def test_copy_cost_scales(self):
        cpu = SgxCpu()
        assert cpu.copy_cost_ns(10_000) > cpu.copy_cost_ns(100) > 0

    def test_rejects_non_patchlevel(self):
        with pytest.raises(TypeError):
            SgxCpu("baseline")


class TestAexSlicing:
    def test_short_compute_no_aex(self, setup):
        process, device, enclave, execution = setup
        execution.compute(1_000)
        assert execution.aex_count == 0

    def test_long_compute_gets_interrupted(self, setup):
        process, device, enclave, execution = setup
        execution.compute(1_050_000)  # ~10.5 timer periods
        assert 9 <= execution.aex_count <= 12

    def test_aex_cost_inflates_duration(self, setup):
        process, device, enclave, execution = setup
        start = process.sim.now_ns
        execution.compute(1_000_000)
        elapsed = process.sim.now_ns - start
        assert elapsed > 1_000_000  # AEX handling takes time on top

    def test_aep_hook_called_per_aex(self, setup):
        process, device, enclave, execution = setup
        infos = []
        execution.aep_hook = infos.append
        execution.compute(500_000)
        assert len(infos) == execution.aex_count > 0
        assert all(i.enclave_id == enclave.enclave_id for i in infos)

    def test_debug_enclave_exposes_reason(self, setup):
        process, device, enclave, execution = setup
        execution.expose_aex_reasons = True and enclave.config.debug
        infos = []
        execution.aep_hook = infos.append
        execution.compute(300_000)
        assert all(i.reason is AexReason.INTERRUPT for i in infos)

    def test_production_enclave_hides_reason(self):
        process = SimProcess(seed=3)
        device = SgxDevice(process.sim, timer_period_ns=50_000)
        enclave = device.driver.create_enclave(EnclaveConfig(debug=False))
        execution = EnclaveExecution(
            sim=process.sim,
            cpu=device.cpu,
            timer=device.timer,
            driver=device.driver,
            enclave=enclave,
            tcs_slot=0,
            expose_aex_reasons=True,  # requested but not a debug enclave
        )
        infos = []
        execution.aep_hook = infos.append
        execution.compute(200_000)
        assert infos and all(i.reason is None for i in infos)

    def test_touch_nonresident_page_faults(self, setup):
        process, device, enclave, execution = setup
        victim = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        device.driver.epc.remove(victim)
        before = execution.aex_count
        execution.touch(victim)
        assert victim.resident
        assert execution.aex_count == before + 1


class TestComputeSlices:
    """Slicing at timer ticks, pinned to what the original loop produced.

    With seed 3 and a 100 µs timer, the fixture's thread starts 65,104 ns
    before a tick.  Each case lists the ``Simulation.compute`` durations
    (enclave slices, then AEX save/handler/ERESUME per tick) and the
    resulting clock and AEX count.
    """

    START_NS = 2_853_200
    TO_TICK_NS = 65_104
    CASES = {
        "zero": (0, [], 2_853_200, 0),
        "before-tick": (25_104, [25_104], 2_878_304, 0),
        "on-tick": (65_104, [65_104], 2_918_304, 0),
        "one-tick": (70_104, [65_104, 1_250, 2_445, 1_350, 5_000], 2_928_349, 1),
        "three-ticks": (
            270_104,
            [65_104, 1_250, 2_445, 1_350, 94_955, 1_250, 2_694, 1_350]
            + [94_706, 1_250, 2_242, 1_350, 15_339],
            3_138_485,
            3,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_slices_match_original_loop(self, setup, case):
        process, device, enclave, execution = setup
        sim = process.sim
        duration, expected_calls, expected_now, expected_aex = self.CASES[case]
        timer = device.timer
        ticks = (sim.now_ns - timer.phase_ns) // timer.period_ns + 1
        next_tick = timer.phase_ns + ticks * timer.period_ns
        assert (sim.now_ns, next_tick - sim.now_ns) == (self.START_NS, self.TO_TICK_NS)
        calls = []
        compute = sim.compute

        def recording_compute(duration_ns):
            calls.append(duration_ns)
            compute(duration_ns)

        sim.compute = recording_compute
        execution.compute(duration)
        assert calls == expected_calls
        assert sim.now_ns == expected_now
        assert execution.aex_count == expected_aex


class TestMmu:
    def test_access_allowed_page(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        mmu.access(enclave, heap, write=True, execution=execution)
        assert heap.accessed

    def test_write_to_readonly_sgx_page_rejected(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        code = next(p for p in enclave.pages if p.page_type is PageType.CODE)
        # Grant MMU write so the (immutable) SGX permission check is the one
        # that fires — it comes second, after the page tables.
        code.os_perms = Permission.RW
        with pytest.raises(SgxPermissionError):
            mmu.access(enclave, code, write=True, execution=execution)

    def test_stripped_page_faults_to_handler(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        faults = []

        def handler(signum, info):
            assert signum == SIGSEGV
            assert isinstance(info, PageFaultInfo)
            faults.append(info)
            heap.os_perms = Permission.RW
            return True

        process.register_signal_handler(SIGSEGV, handler)
        heap.os_perms = Permission.NONE
        mmu.access(enclave, heap, write=True, execution=execution)
        assert len(faults) == 1
        assert faults[0].write

    def test_unhandled_fault_kills(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        heap.os_perms = Permission.NONE
        with pytest.raises(SignalFault):
            mmu.access(enclave, heap, execution=execution)

    def test_handler_that_never_fixes_loops_bounded(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        heap.os_perms = Permission.NONE
        process.register_signal_handler(SIGSEGV, lambda s, i: True)  # lies
        with pytest.raises(SgxPermissionError, match="fault loop"):
            mmu.access(enclave, heap, execution=execution)

    def test_protect_counts_extents(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = [p for p in enclave.pages if p.page_type is PageType.HEAP]
        # Two contiguous runs: pages [0,1,2] and [5,6].
        selected = heap[0:3] + heap[5:7]
        extents = mmu.protect(selected, Permission.NONE, charge=False)
        assert extents == 2
        assert all(p.os_perms == Permission.NONE for p in selected)

    def test_untrusted_access_to_nonresident_rejected(self, setup):
        process, device, enclave, execution = setup
        mmu = Mmu(process)
        heap = next(p for p in enclave.pages if p.page_type is PageType.HEAP)
        device.driver.epc.remove(heap)
        with pytest.raises(SgxPermissionError):
            mmu.access(enclave, heap)  # no execution context
