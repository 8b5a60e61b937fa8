package farm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/trace"
	"ealb/internal/workload"
)

// farmDigest runs the farm serially and hashes the JSON-encoded
// IntervalStats stream, like the engine's federated golden tests.
func farmDigest(t *testing.T, cfg Config, intervals int, tr trace.Tracer) string {
	t.Helper()
	cfg.Tracer = tr
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.RunIntervals(context.Background(), intervals, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestFarmTraceInvariance requires a farm's digested output to be
// byte-identical with and without a tracer attached, churn-free and
// churned, and the traced run to have seen dispatch decisions plus
// cluster events stamped with non-zero cluster indices.
func TestFarmTraceInvariance(t *testing.T) {
	base := DefaultConfig(3, 50, workload.LowLoad(), 2014)
	churned := base
	churned.Cluster.MTBF = 20 * cluster.Tau
	churned.Cluster.MTTR = 5 * cluster.Tau

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"churn-free", base},
		{"churned", churned},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const intervals = 20
			plain := farmDigest(t, tc.cfg, intervals, nil)
			rec := trace.NewRecorder()
			var lastCluster int
			probe := trace.Multi(rec, clusterProbe{max: &lastCluster})
			traced := farmDigest(t, tc.cfg, intervals, trace.Multi(probe, trace.NewWriter(io.Discard)))
			if plain != traced {
				t.Errorf("farm digest differs with tracer attached:\n off %s\n on  %s", plain, traced)
			}
			if rec.Events(trace.KindDispatch) == 0 {
				t.Error("no dispatch decisions traced")
			}
			if rec.Events(trace.KindReport) == 0 {
				t.Error("no cluster regime reports traced through the farm")
			}
			if lastCluster != tc.cfg.Clusters-1 {
				t.Errorf("max traced cluster index = %d, want %d", lastCluster, tc.cfg.Clusters-1)
			}
			if tc.name == "churned" && rec.Events(trace.KindFail) == 0 {
				t.Error("churned farm traced no failures")
			}
		})
	}
}

// clusterProbe records the largest cluster index seen on any event —
// evidence that WithCluster stamps every member cluster's stream.
type clusterProbe struct{ max *int }

func (p clusterProbe) Event(e trace.Event) {
	if e.Cluster > *p.max {
		*p.max = e.Cluster
	}
}

func (p clusterProbe) Phase(trace.Phase, time.Duration) {}
