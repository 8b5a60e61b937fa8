package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

// TestStdoutPinned runs the example and pins the SHA-256 of its stdout,
// so a change that moves a byte of its table fails here.
func TestStdoutPinned(t *testing.T) {
	const want = "dbe43cfe27098881b89d30761f3642a9e775ab5884d646a5ec20febf9852161d"
	f, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A fresh flag set lets main define its flags again on a repeated run.
	stdout, args, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, flags }()
	flag.CommandLine = flag.NewFlagSet("example", flag.ExitOnError)
	os.Stdout, os.Args = f, []string{"datacenter"}
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
