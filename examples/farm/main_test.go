package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

// TestStdoutPinned runs the example at 3 clusters of 40 servers, high
// load, 12 intervals and 40 arrivals per interval, and pins the SHA-256
// of its stdout, so a change that moves a byte of its table fails here.
func TestStdoutPinned(t *testing.T) {
	const want = "4efb94c0846342ba4a2cb34e147c26b749322b3b5eaaa6b8ed6ab98b12731839"
	f, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A fresh flag set lets main define its flags again on a repeated run.
	stdout, args, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, flags }()
	flag.CommandLine = flag.NewFlagSet("example", flag.ExitOnError)
	os.Stdout, os.Args = f, []string{"farm", "-clusters", "3", "-size", "40", "-intervals", "12", "-load", "high", "-arrivals", "40"}
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
