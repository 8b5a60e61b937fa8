package app

import (
	"testing"

	"ealb/internal/xrand"
)

// TestNextIntoMatchesNext: two generators with identical streams must
// produce identical applications whether allocating (Next) or recycling
// (NextInto), and their internal state must stay in lockstep.
func TestNextIntoMatchesNext(t *testing.T) {
	g1, err := NewGenerator(xrand.New(42), 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(xrand.New(42), 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var recycled App
	for i := 0; i < 20; i++ {
		a, err := g1.Next(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.NextInto(&recycled, 0.1); err != nil {
			t.Fatal(err)
		}
		if *a != recycled {
			t.Fatalf("draw %d: Next=%+v NextInto=%+v", i, *a, recycled)
		}
	}
	// A failed draw must not consume an ID.
	last := recycled.ID
	if err := g2.NextInto(&recycled, 2); err == nil {
		t.Fatal("NextInto accepted an invalid demand")
	}
	if err := g2.NextInto(&recycled, 0.1); err != nil {
		t.Fatal(err)
	}
	if recycled.ID != last+1 {
		t.Errorf("failed NextInto consumed an ID: %d -> %d", last, recycled.ID)
	}
}

// TestInitMatchesNew: Init must fully overwrite a dirty value.
func TestInitMatchesNew(t *testing.T) {
	fresh, err := New(7, 0.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dirty := App{ID: 99, Demand: 0.9, Reserved: 1, Slack: 0.5, Base: 0.9, Reversion: 9}
	if err := Init(&dirty, 7, 0.3, 0.02); err != nil {
		t.Fatal(err)
	}
	if dirty != *fresh {
		t.Errorf("Init left residue: %+v vs %+v", dirty, *fresh)
	}
	if err := Init(&dirty, 7, 0.3, 0); err == nil {
		t.Error("Init accepted zero lambda")
	}
}
