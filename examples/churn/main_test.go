package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

// TestStdoutPinned runs the example at 3 clusters of 40 servers, high
// load, 12 intervals, MTBF 1200 s, MTTR 600 s and 20 arrivals per
// interval, and pins the SHA-256 of its stdout, so a change that moves
// a byte of its table fails here.
func TestStdoutPinned(t *testing.T) {
	const want = "a8299eeea5892f1003a0bd2e77be27b6b42a56f78c52c07cfc5c841078ab33fc"
	f, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A fresh flag set lets main define its flags again on a repeated run.
	stdout, args, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, flags }()
	flag.CommandLine = flag.NewFlagSet("example", flag.ExitOnError)
	os.Stdout, os.Args = f, []string{"churn", "-clusters", "3", "-size", "40", "-intervals", "12", "-load", "high", "-mtbf", "1200", "-mttr", "600", "-arrivals", "20"}
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("stdout digest drifted:\n got %s\nwant %s\n%s", got, want, out)
	}
}
