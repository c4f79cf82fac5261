"""The kernel's declared interface: one field list, one owner.

The C kernel declares its parameter block once (``STARNET_FIELDS`` in
``_ckernel.c``) and exports it as a layout table; every field is filled
by name from the SimState attribute of the same name.  These tests pin
the loud failures of that contract (a missing attribute, a wrong dtype,
a non-contiguous array, a block that is not one word per field) and
that the trace digest covers every state array the kernel sees.
"""

import copy

import numpy as np
import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation import ckernel
from repro.simulation import state as state_mod
from repro.simulation.trace import state_digest
from repro.utils.exceptions import ConfigurationError

needs_kernel = pytest.mark.skipif(
    ckernel.load_kernel() is None, reason="no C compiler available"
)


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.01,
        total_vcs=5,
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=800,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestLayout:
    def test_block_size_must_be_one_word_per_field(self):
        entries = [("cycle", "run", "", 0), ("vc_bd", "arr", "int32", 8)]
        assert [f.name for f in ckernel.read_layout(entries, 16)] == ["cycle", "vc_bd"]
        with pytest.raises(ValueError, match="20 bytes, expected 8 x 2 fields"):
            ckernel.read_layout(entries, 20)

    def test_misplaced_field_is_named(self):
        entries = [("cycle", "run", "", 0), ("vc_bd", "arr", "int32", 12)]
        with pytest.raises(ValueError, match="'vc_bd' is at byte 12, expected 8"):
            ckernel.read_layout(entries, 16)

    @needs_kernel
    def test_every_field_is_a_simstate_attribute(self, star3):
        """The one owner holds every field under its declared name."""
        sim = ArraySimulator(star3, EnhancedNbc(), small_config())
        fields = ckernel.kernel_fields()
        assert len({f.name for f in fields}) == len(fields)
        for f in fields:
            value = getattr(sim.state, f.name)
            if f.dtype is not None and value is not None:
                assert value.dtype == f.dtype, f.name
        kinds = {f.kind for f in fields}
        assert kinds == {"arr", "scr", "opt", "val", "run"}


@needs_kernel
class TestOwnerChecks:
    @pytest.fixture
    def owner(self, star3):
        sim = ArraySimulator(star3, EnhancedNbc(), small_config(), seeds=(3, 4))
        return copy.copy(sim.state)

    def _block(self, owner):
        return ckernel.ParamBlock(ckernel.kernel_fields(), owner)

    def test_missing_attribute_names_the_field(self, owner):
        del owner.hb_wait
        with pytest.raises(ConfigurationError, match="'hb_wait'.*no attribute"):
            self._block(owner)

    def test_wrong_dtype_names_the_field(self, owner):
        owner.vc_bd = owner.vc_bd.astype(np.int64)
        with pytest.raises(ConfigurationError, match="'vc_bd'.*got dtype int64"):
            self._block(owner)

    def test_non_contiguous_array_names_the_field(self, owner):
        owner.lat_sum = np.zeros(2 * owner.replications)[::2]
        with pytest.raises(ConfigurationError, match="'lat_sum'.*non-contiguous"):
            self._block(owner)

    def test_none_only_for_optional_arrays(self, owner):
        owner.phase_ns = None  # optional: profiling off
        block = self._block(owner)
        assert block.struct.phase_ns == 0
        owner.ch_rr = None
        with pytest.raises(ConfigurationError, match="'ch_rr'.*got NoneType"):
            self._block(owner)

    def test_simulator_construction_names_the_field(self, star3, monkeypatch):
        init = state_mod.SimState.__init__

        def without_marks(self, *args, **kwargs):
            init(self, *args, **kwargs)
            del self.progress_marks

        monkeypatch.setattr(state_mod.SimState, "__init__", without_marks)
        with pytest.raises(ConfigurationError, match="'progress_marks'"):
            ArraySimulator(star3, EnhancedNbc(), small_config())


@needs_kernel
class TestDigestCoverage:
    def test_every_state_array_is_hashed(self, star3):
        """Changing any element of any state array the kernel sees (in
        its live region) changes the digest; scratch and optional
        arrays are the only arrays left out."""
        sim = ArraySimulator(
            star3, EnhancedNbc(), small_config(generation_rate=0.03), seeds=(3, 4)
        )
        st = sim.state
        for _ in range(2_000):
            sim.step()
            if st.ej_n and st.need_n.sum() and (st.free_n < st.capacity).all():
                break
        else:
            pytest.fail("no cycle with live ejection columns and pending headers")
        base = state_digest(sim)
        fields = ckernel.kernel_fields()
        hashed = [f for f in fields if f.kind == "arr"]
        assert {f.kind for f in fields if f.dtype is not None} - {"arr"} == {
            "scr",
            "opt",
        }
        for f in hashed:
            arr = getattr(st, f.name)
            if f.name == "need_slots":
                index = (int(np.argmax(st.need_n)), 0)
            elif f.name in ("free_stack",):
                index = (0, 0)
            else:
                index = (0,) * arr.ndim
            old = arr[index].copy()
            arr[index] = 0 if old != 0 else 1
            assert state_digest(sim) != base, f"{f.name} is not hashed"
            arr[index] = old
        assert state_digest(sim) == base
        for name in ("cycle", "busy_vcs", "need_total", "ej_n"):
            value = getattr(st, name)
            setattr(st, name, value + 1)
            assert state_digest(sim) != base, f"{name} is not hashed"
            setattr(st, name, value)


@needs_kernel
class TestPoolGrowth:
    def test_grow_widens_every_capacity_sized_array(self, star3):
        """Every kernel array sized by the pool capacity is widened by
        grow(): one left narrow would be overrun after a growth."""
        sim = ArraySimulator(star3, EnhancedNbc(), small_config(), seeds=(3, 4))
        st = sim.state
        old = st.capacity
        pooled = [
            f.name
            for f in ckernel.kernel_fields()
            if f.dtype is not None
            and getattr(st, f.name) is not None
            and getattr(st, f.name).shape == (st.replications, old)
        ]
        assert "need_slots" in pooled and "ej_pos" in pooled
        st.grow()
        for name in pooled:
            assert getattr(st, name).shape == (st.replications, 2 * old), name
