// Package fixture carries a suppression annotation with no reason: the
// wall-clock read below it is suppressed, but the bare annotation is a
// finding of its own.
package fixture

import "time"

func stamp() time.Time {
	/* want `ealb annotation must carry a reason` */ //ealb:allow-nondet
	return time.Now()
}
