package store

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ealb/internal/engine"
)

// sweepResult returns the recorded result of a 2-cell cluster sweep of
// size servers over intervals intervals: json.Marshal of the
// engine.SweepResult, the bytes the service stores for a done sweep.
func sweepResult(tb testing.TB, size, intervals int) []byte {
	tb.Helper()
	spec := engine.SweepSpec{
		Scenario: engine.Scenario{Kind: engine.KindCluster, Size: size, Band: "low", Intervals: intervals},
		Seeds:    []uint64{11, 12},
	}
	sw, err := engine.NewPool(1).RunSweep(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	result, err := json.Marshal(sw)
	if err != nil {
		tb.Fatal(err)
	}
	return result
}

// FuzzValid pins Valid to json.Valid on arbitrary bytes.
//
//	go test ./internal/store -run '^$' -fuzz FuzzValid -fuzztime 15s
func FuzzValid(f *testing.F) {
	for _, s := range []string{
		// Numbers.
		`0`, `-0`, `1`, `-`, `01`, `-01`, `00`, `1.`, `1.5`, `.5`, `+1`, `1e5`, `1E+5`, `1e-5`,
		`1e`, `1e+`, `1.5e`, `0.0e0`, `-1.25E-07`, `1x`, `1 `, ` 1`, `1 2`, `123456789012345678901234567890`,
		// Strings and escapes.
		`""`, `"a"`, `"`, `"a`, `"\"`, `"\\"`, `"\/"`, `"\b\f\n\r\t"`, `"\x"`, `"é"`, `"😀"`,
		`"\u12G4"`, `"\u123"`, `"\u"`, "\"a\x1fb\"", "\"\x00\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xe2\x82\"",
		// Literals.
		`true`, `false`, `null`, `tru`, `truex`, `nul`, `nulll`, `True`, `fals`, `[true,false,null]`,
		// Containers and whitespace.
		``, ` `, "\t\n\r ", `[]`, `{}`, `[`, `{`, `]`, `}`, `[}`, `{]`, `[1,]`, `[,1]`, `{"a":1,}`, `{"a"}`,
		`{"a":}`, `{1:2}`, `{"a":1 "b":2}`, ` { "a" : [ 1 , 2 ] , "b" : { } } `, "[\v]", "[\f]", `[1][2]`,
		`{"a":{"b":[{"c":"d"}]}}`, `[[[[]]]]`, `[[[]]`, `{"a":1}}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(sweepResult(f, 20, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Valid(b), json.Valid(b); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid = %v", b, got, want)
		}
	})
}

// TestValidNesting: arrays and objects nested 10,000 deep are valid and
// 10,001 deep are not, as json.Valid has it.
func TestValidNesting(t *testing.T) {
	arrays := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	objects := func(n int) string { return strings.Repeat(`{"a":`, n-1) + "{}" + strings.Repeat("}", n-1) }
	for _, tc := range []struct {
		name string
		doc  string
		want bool
	}{
		{"arrays 10000", arrays(10000), true},
		{"arrays 10001", arrays(10001), false},
		{"objects 10000", objects(10000), true},
		{"objects 10001", objects(10001), false},
		{"mixed 10001", `{"a":` + arrays(10000) + `}`, false},
	} {
		b := []byte(tc.doc)
		if got, oracle := Valid(b), json.Valid(b); got != tc.want || oracle != tc.want {
			t.Errorf("%s: Valid = %v, json.Valid = %v, want %v", tc.name, got, oracle, tc.want)
		}
	}
}

// BenchmarkValid reads one recorded 2-cell, 100-server, 40-interval
// sweep result with json.Valid and with Valid; the MB/s columns give
// their ratio.
func BenchmarkValid(b *testing.B) {
	result := sweepResult(b, 100, 40)
	for _, v := range []struct {
		name  string
		valid func([]byte) bool
	}{{"json.Valid", json.Valid}, {"store.Valid", Valid}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(result)))
			b.ReportAllocs()
			for b.Loop() {
				if !v.valid(result) {
					b.Fatal("recorded result is not valid")
				}
			}
		})
	}
}
