// Package app_test checks the application generator of package server
// through its exported API.
package app_test

import (
	"testing"

	"ealb/internal/server"
	"ealb/internal/xrand"
)

func TestGeneratorValidation(t *testing.T) {
	rng := xrand.New(1)
	cases := [][2]float64{{0, 0.1}, {0.1, 0.1}, {0.2, 0.1}, {0.5, 1.5}}
	for i, c := range cases {
		if _, err := server.NewAppGenerator(rng, c[0], c[1]); err == nil {
			t.Errorf("case %d: invalid range accepted %v", i, c)
		}
	}
}

// TestNextIntoMatchesNext: two generators with identical streams must
// produce identical applications whether allocating (Next) or recycling
// (NextInto), and their internal state must stay in lockstep.
func TestNextIntoMatchesNext(t *testing.T) {
	g1, err := server.NewAppGenerator(xrand.New(42), 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := server.NewAppGenerator(xrand.New(42), 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var recycled server.App
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
