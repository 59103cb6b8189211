package sim

import "testing"

// TestStatsHandleNameEquivalence pins the contract between the interned
// Counter handles and the name-keyed readers: Get and Snapshot see every
// handle write.
func TestStatsHandleNameEquivalence(t *testing.T) {
	s := NewStats()
	c := s.Counter("x")
	c.Inc()
	c.Add(4)
	if s.Get("x") != 5 || c.Value() != 5 {
		t.Fatalf("Get sees %d and the handle %d after handle writes, want 5", s.Get("x"), c.Value())
	}
	if snap := s.Snapshot(); len(snap) != 1 || snap[0] != (CounterSample{Name: "x", Value: 5}) {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestStatsCounterInterned(t *testing.T) {
	s := NewStats()
	a := s.Counter("same")
	b := s.Counter("same")
	if a != b {
		t.Fatal("Counter must return the same handle for the same name")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "same" {
		t.Fatalf("Names = %v", names)
	}
}

// TestStatsResetKeepsHandles: Reset zeroes values but previously interned
// handles stay live — schemes cache them across harness Reset boundaries.
func TestStatsResetKeepsHandles(t *testing.T) {
	s := NewStats()
	c := s.Counter("k")
	c.Add(7)
	s.Reset()
	if c.Value() != 0 {
		t.Fatalf("handle value after Reset = %d, want 0", c.Value())
	}
	c.Inc()
	if s.Get("k") != 1 {
		t.Fatalf("handle detached from registry after Reset: Get = %d", s.Get("k"))
	}
}

func TestStatsCounterRegistersImmediately(t *testing.T) {
	s := NewStats()
	s.Counter("early")
	if s.Get("early") != 0 {
		t.Fatal("fresh counter must read zero")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "early" {
		t.Fatalf("interning must register the name: %v", names)
	}
}
