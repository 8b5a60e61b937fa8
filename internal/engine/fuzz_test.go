package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// scenarioSpecSeeds are FuzzScenarioSpec's seed bodies; the expansion
// pin (TestExpandPinned) hashes their outcomes too.
var scenarioSpecSeeds = []string{
	`{"size":40,"intervals":3}`,
	`{"size":40,"intervals":3,"seed":0}`,
	`{"size":40,"intervals":3,"compare_baseline":true}`,
	`{"size":40,"intervals":3,"seeds":[10],"replications":3}`,
	`{"kind":"cluster","size":40,"band":"low","seed":7,"intervals":4,"trace":true}`,
	`{"kind":"cluster","sizes":[50],"mtbfs":[0,900],"mttrs":[240],"seeds":[1,2],"intervals":6}`,
	`{"sizes":[100,1000],"seeds":[1,2,3],"intervals":8}`,
	`{"sizes":[40],"seeds":[1,2,3],"intervals":6,"mtbfs":[5000],"mttrs":[600]}`,
	`{"kind":"farm","clusters":3,"size":40,"dispatch":"least-loaded","intervals":5}`,
	`{"kind":"farm","clusters":2,"size":40,"intervals":6,"arrival_rate":0}`,
	`{"kind":"farm","sizes":[40],"cluster_counts":[2,3],"dispatches":["round-robin","energy-headroom"],"seeds":[1,2],"intervals":4}`,
	`{"kind":"policy","profile":"burst","servers":20,"horizon_seconds":300}`,
	`{"kind":"policy","profiles":["constant","burst"],"server_counts":[20],"horizon_seconds":600,"seeds":[1,2]}`,
	`{"kind":"policy","trace":true}`,
	`{"kind":"policy","sizes":[100]}`,
	`{"kind":"farm","profiles":["diurnal"]}`,
	`{"kind":"cluster","mtbf":900,"mtbfs":[900]}`,
	`{"kind":"quantum"}`,
	`{"band":"sideways"}`,
	`{"seed":1,"seeds":[2]}`,
	`{"replications":-2}`,
	`{"seeds":[1,2],"replications":4611686018427387904}`,
	`{"sizes":[100],"replications":100000}`,
	`{"unknown_field":true}`,
	`{`,
}

// FuzzScenarioSpec feeds arbitrary bytes through the service's submit
// decoding (a json.Decoder that rejects unknown fields, into a
// SweepSpec) and then through Expand. Nothing may panic, and an
// accepted spec must stay inside the job budget, yield only valid
// cells, and re-expand from its normalized Spec to the same cells —
// the property Recover relies on when it re-runs a stored sweep.
//
//	go test ./internal/engine -run '^$' -fuzz FuzzScenarioSpec -fuzztime 15s
func FuzzScenarioSpec(f *testing.F) {
	for _, body := range scenarioSpecSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec SweepSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		ex, err := spec.Expand()
		if err != nil {
			return
		}
		cells := ex.Cells()
		if len(cells) > MaxScenarioJobs {
			t.Fatalf("%d cells, over the %d-job budget", len(cells), MaxScenarioJobs)
		}
		for i, c := range cells {
			if err := c.Validate(); err != nil {
				t.Fatalf("cell %d does not validate: %v", i, err)
			}
		}
		again, err := ex.Spec().Expand()
		if err != nil {
			t.Fatalf("normalized spec does not re-expand: %v", err)
		}
		if !reflect.DeepEqual(again.Cells(), cells) {
			t.Fatalf("re-expanding the normalized spec changed the cells:\n%+v\n%+v", again.Cells(), cells)
		}
	})
}
