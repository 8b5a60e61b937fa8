package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// panelDigests pins the SHA-256 of the §5 panel reports at sizes
// 100 and 1000, the paper's seed and 40 intervals — the output of
// `ealb-experiments -run <name> -sizes 100,1000`. Any change to the
// sweep path that moves a byte of a panel fails here.
var panelDigests = map[string]string{
	"figure2":       "4e6bab0d65ade085ca974cdbf0fb23b32ccfc29c75532569fe950252c4772621",
	"table2":        "53a0919bb69040d059febcc56909a1c420f05159b26bd2ec356f02fe8472b9b8",
	"energy":        "8ac54e413947b2da8b71ad83e66c79c86569d419f3a8c2f9e69bd3b629943ccd",
	"robustness":    "e90cef246eef43937a0a0631882a253fd1bbf660b538564d7cff4b3169771978",
	"smallclusters": "76b1b385e7493c9c61479661286574e35eb89c2da607cffbbaace7c88489d3d7",
}

func TestPanelGoldenDigests(t *testing.T) {
	for _, name := range []string{"figure2", "table2", "energy", "robustness", "smallclusters"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				opt := Options{Sizes: []int{100, 1000}, Seed: DefaultSeed, Intervals: 40, Parallel: workers}
				if err := Run(name, &buf, opt); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != panelDigests[name] {
					t.Errorf("%s digest drifted:\n got %s\nwant %s", name, got, panelDigests[name])
				}
			})
		}
	}
}
