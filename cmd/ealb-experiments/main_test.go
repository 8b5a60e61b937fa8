package main

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ealb/internal/engine"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("100, 1000,10000")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{100, 1000, 10000}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseSizes = %v, want %v", got, want)
	}
	if got, err := parseSizes(strconv.Itoa(engine.MaxScenarioSize)); err != nil || got[0] != engine.MaxScenarioSize {
		t.Errorf("size at the cap = %v, %v; want accepted", got, err)
	}
	for _, in := range []string{"", "abc", "100,x", "1", "0", "-5", "100,1"} {
		if _, err := parseSizes(in); err == nil {
			t.Errorf("parseSizes(%q) accepted junk", in)
		}
	}
	over := strconv.Itoa(engine.MaxScenarioSize + 1)
	_, err = parseSizes("100," + over)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(engine.MaxScenarioSize)) {
		t.Errorf("parseSizes(%q) error = %v, want one naming the cap", over, err)
	}
}
