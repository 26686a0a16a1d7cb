package core

import "testing"

func TestMeterCharges(t *testing.T) {
	m := NewMeter(3)
	for range 4 {
		m.Charge() // unconditional: loads may exceed the budget
	}
	if m.Used() != 4 || m.Limit() != 3 {
		t.Fatalf("used=%d limit=%d, want 4 and 3", m.Used(), m.Limit())
	}
	m.SetLimit(10)
	if m.Used() != 4 || m.Limit() != 10 {
		t.Fatalf("after SetLimit: used=%d limit=%d, want 4 and 10", m.Used(), m.Limit())
	}
}
