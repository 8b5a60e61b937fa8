package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The pure-math artifacts have byte-stable output: Table 1 is fixed data
// and Figure 1 is a deterministic render of fixed inputs. Pinning them
// catches accidental format or constant drift.

func TestTable1Golden(t *testing.T) {
	var sb strings.Builder
	if err := RenderTable1(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"Table 1 — estimated average server power use (Watts) [Koomey]",
		"Type  2000  2001  2002  2003  2004  2005  2006",
		"----------------------------------------------",
		"Vol   186   193   200   207   213   219   225 ",
		"Mid   424   457   491   524   574   625   675 ",
		"High  5534  5832  6130  6428  6973  7651  8163",
	}, "\n") + "\n"
	if sb.String() != want {
		t.Errorf("Table 1 output drifted:\n got:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestHomogeneousGoldenHeadline(t *testing.T) {
	var sb strings.Builder
	if err := RenderHomogeneous(&sb); err != nil {
		t.Fatal(err)
	}
	wantLine := "E_ref/E_opt = 2.2500 (paper: 2.25), energy saving 55.6%, n_sleep = 667 of 1000"
	if !strings.Contains(sb.String(), wantLine) {
		t.Errorf("homogeneous headline drifted; want %q in:\n%s", wantLine, sb.String())
	}
}

// panelDigests pins the SHA-256 of every registered experiment's report
// at sizes 100 and 1000, the paper's seed and 40 intervals — the output
// of `ealb-experiments -run <name> -sizes 100,1000`. Any change to the
// sweep path, the cluster model or the policy farm that moves a byte of
// a report fails here, and so does a registered name with no digest.
var panelDigests = map[string]string{
	"ablation-consolidation": "38040505e3bad9d0106cc954847ffcae913b987fd2489e42a8928a92e93814da",
	"ablation-delta":         "fc5eaece5167a7143e404b86eb97588524ae16bdfab6cde87efd79ad2a0b27c0",
	"ablation-sleep":         "05473ed5daf9277bd3f5547ca6bb3ed0367b3b3daa1ee3d9fa18d5ae9e248800",
	"dvfs":                   "c1dff4c9accb0547ebbb9ce3a02305e7b4cc8cf8646cce1ef24747aed0a363f3",
	"energy":                 "8ac54e413947b2da8b71ad83e66c79c86569d419f3a8c2f9e69bd3b629943ccd",
	"figure1":                "466cfa7ed23d98393e6b53266c82a32312913aa33bd634f11a2bdda8501114d6",
	"figure2":                "4e6bab0d65ade085ca974cdbf0fb23b32ccfc29c75532569fe950252c4772621",
	"figure3":                "287f1abd659ca0dbfc40c4adad219d126fb406a045348c8cf4958d235b304918",
	"homogeneous":            "17d56044a18bac5141fd4bff1f4423b23907a3cf46d37cd0820b98aadf085577",
	"policies":               "26e23664c4beec3fca3629847a4282addb3212eb06aea2b509ead83286b95276",
	"robustness":             "e90cef246eef43937a0a0631882a253fd1bbf660b538564d7cff4b3169771978",
	"smallclusters":          "76b1b385e7493c9c61479661286574e35eb89c2da607cffbbaace7c88489d3d7",
	"table1":                 "082802c56cc7c4f2d93772e16bf63e6988ccb78f6538c03600dee9477451cc3c",
	"table2":                 "53a0919bb69040d059febcc56909a1c420f05159b26bd2ec356f02fe8472b9b8",
}

func TestPanelGoldenDigests(t *testing.T) {
	names := make([]string, 0, len(Registry()))
	for name := range Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := panelDigests[name]
		if !ok {
			t.Errorf("registered experiment %q has no pinned digest", name)
			continue
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				opt := Options{Sizes: []int{100, 1000}, Seed: DefaultSeed, Intervals: 40, Parallel: workers}
				if err := Run(name, &buf, opt); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s digest drifted:\n got %s\nwant %s", name, got, want)
				}
			})
		}
	}
}
