package coro

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestPoisonFullMaskKeepsAll(t *testing.T) {
	c := NewContext(0, 10, 0x1000)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		c.Regs[r] = uint64(r) * 7
	}
	c.Regs[isa.SP] = 0x1000
	c.Flags = -1
	c.Poison(isa.AllRegs)
	if c.PC != 10 || c.Flags != -1 {
		t.Errorf("PC/flags changed: pc=%d flags=%d", c.PC, c.Flags)
	}
	for r := isa.Reg(0); r < isa.SP; r++ {
		if c.Regs[r] != uint64(r)*7 {
			t.Errorf("r%d = %#x, want %#x", r, c.Regs[r], uint64(r)*7)
		}
	}
}

func TestPoisonDeadRegisters(t *testing.T) {
	c := NewContext(0, 5, 0x2000)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		c.Regs[r] = 1000 + uint64(r)
	}
	c.Regs[isa.SP] = 0x2000
	c.Flags = 1
	c.Poison(isa.RegMask(0).With(1).With(3))
	if c.Regs[1] != 1001 || c.Regs[3] != 1003 {
		t.Error("live registers not preserved")
	}
	if c.Regs[isa.SP] != 0x2000 {
		t.Error("SP must always be preserved")
	}
	if c.PC != 5 || c.Flags != 1 {
		t.Errorf("PC/flags changed: pc=%d flags=%d", c.PC, c.Flags)
	}
	for _, r := range []isa.Reg{0, 2, 4, 5, 14} {
		if c.Regs[r] != PoisonValue {
			t.Errorf("dead register r%d = %#x, want poison", r, c.Regs[r])
		}
	}
}

func TestPoisonAlwaysKeepsSP(t *testing.T) {
	f := func(mask uint16) bool {
		c := NewContext(0, 0, 0xABCD)
		c.Poison(isa.RegMask(mask))
		return c.Regs[isa.SP] == 0xABCD
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	full := m.FullCost()
	if full != 8+16 {
		t.Errorf("FullCost = %d, want 24", full)
	}
	// A minimal mask still pays for SP.
	if got := m.Cost(0); got != 8+1 {
		t.Errorf("Cost(empty) = %d, want 9", got)
	}
	small := m.Cost(isa.RegMask(0).With(1).With(2))
	if small >= full {
		t.Errorf("partial save (%d) should be cheaper than full (%d)", small, full)
	}
	// Monotonicity property: adding registers never lowers the cost.
	f := func(mask uint16, reg uint8) bool {
		r := isa.Reg(reg % isa.NumRegs)
		base := isa.RegMask(mask)
		return m.Cost(base.With(r)) >= m.Cost(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContextAccounting(t *testing.T) {
	c := NewContext(3, 0, 0)
	c.Name = "worker"
	c.BusyCycles = 10
	c.StallCycles = 20
	c.SwitchCycles = 5
	if c.TotalCycles() != 35 {
		t.Errorf("TotalCycles = %d", c.TotalCycles())
	}
	if s := c.String(); s == "" {
		t.Error("empty String")
	}
	c2 := NewContext(4, 0, 0)
	if s := c2.String(); s == "" {
		t.Error("empty String for unnamed context")
	}
}

func TestModeString(t *testing.T) {
	if Primary.String() != "primary" || Scavenger.String() != "scavenger" {
		t.Error("mode strings wrong")
	}
}
