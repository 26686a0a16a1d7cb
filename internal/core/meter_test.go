package core

import "testing"

func TestMeterCharges(t *testing.T) {
	m := NewMeter(3)
	m.Charge() // unconditional (EDB)
	if !m.TryCharge() || !m.TryCharge() {
		t.Fatal("charges within budget must succeed")
	}
	if m.TryCharge() {
		t.Fatal("charge beyond the budget must fail")
	}
	if m.Used() != 3 {
		t.Fatalf("used: %d", m.Used())
	}
	// Unconditional charges may exceed the budget (loads are never
	// rejected); subsequent TryCharge still fails.
	m.Charge()
	if m.Used() != 4 || m.TryCharge() {
		t.Fatalf("used=%d after overload", m.Used())
	}
}
