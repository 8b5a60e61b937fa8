package fixture

import (
	"testing"
	"time"
)

// Test files are outside the contracts, so the wall-clock read is no
// finding, but a bare annotation is one wherever it is written.
func TestStamp(t *testing.T) {
	/* want `ealb annotation must carry a reason` */ //ealb:allow-nondet
	if time.Now().IsZero() {
		t.Fatal("zero wall clock")
	}
}
