package main

import (
	"fmt"
	"maps"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// spec names one campaign by its wire identity.
type spec struct {
	App, Scenario, Scheme, Model string
}

func (s spec) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", s.App, s.Scenario, s.Scheme, s.Model)
}

// outcome is a campaign's pinned result: run total and outcome counts
// (outcome abbreviations as in Table 1; zero counts are omitted).
type outcome struct {
	Total  int
	Counts map[string]int
}

// reference pins the outcome counts of every campaign the benchmark runs.
// The engine is deterministic, so these are exact: any drift is a change
// of behaviour, not noise. Tables 1 and 5 of the paper are the bitflip
// rows; the regflip row is the 14,080-run register-fault campaign.
var reference = map[spec]outcome{
	{"ftpd", "Client1", "x86", "bitflip"}:    {992, map[string]int{"NA": 192, "NM": 234, "SD": 474, "FSV": 87, "BRK": 5}},
	{"ftpd", "Client2", "x86", "bitflip"}:    {992, map[string]int{"NA": 176, "NM": 221, "SD": 483, "FSV": 112}},
	{"ftpd", "Client3", "x86", "bitflip"}:    {992, map[string]int{"NA": 416, "NM": 160, "SD": 347, "FSV": 69}},
	{"ftpd", "Client4", "x86", "bitflip"}:    {992, map[string]int{"NA": 576, "NM": 159, "SD": 210, "FSV": 47}},
	{"sshd", "Client1", "x86", "bitflip"}:    {952, map[string]int{"NA": 192, "NM": 274, "SD": 395, "FSV": 62, "BRK": 29}},
	{"sshd", "Client2", "x86", "bitflip"}:    {952, map[string]int{"NA": 192, "NM": 264, "SD": 385, "FSV": 111}},
	{"ftpd", "Client1", "parity", "bitflip"}: {992, map[string]int{"NA": 192, "NM": 164, "SD": 583, "FSV": 51, "BRK": 2}},
	{"ftpd", "Client2", "parity", "bitflip"}: {992, map[string]int{"NA": 176, "NM": 153, "SD": 596, "FSV": 67}},
	{"ftpd", "Client3", "parity", "bitflip"}: {992, map[string]int{"NA": 416, "NM": 102, "SD": 429, "FSV": 45}},
	{"ftpd", "Client4", "parity", "bitflip"}: {992, map[string]int{"NA": 576, "NM": 117, "SD": 280, "FSV": 19}},
	{"sshd", "Client1", "parity", "bitflip"}: {952, map[string]int{"NA": 192, "NM": 211, "SD": 479, "FSV": 46, "BRK": 24}},
	{"sshd", "Client2", "parity", "bitflip"}: {952, map[string]int{"NA": 192, "NM": 215, "SD": 470, "FSV": 75}},
	{"ftpd", "Client1", "x86", "regflip"}:    {14080, map[string]int{"NA": 3072, "NM": 8888, "SD": 1665, "FSV": 431, "BRK": 24}},
}

// paperTables is the campaign set of Tables 1 and 5: bitflip under the
// stock and parity encodings for ftpd Client1-4 and sshd Client1-2.
func paperTables() []spec {
	var out []spec
	for _, scheme := range []string{"x86", "parity"} {
		for _, sc := range []string{"Client1", "Client2", "Client3", "Client4"} {
			out = append(out, spec{"ftpd", sc, scheme, "bitflip"})
		}
		for _, sc := range []string{"Client1", "Client2"} {
			out = append(out, spec{"sshd", sc, scheme, "bitflip"})
		}
	}
	return out
}

// regflipFTPD is the single large register-fault campaign.
func regflipFTPD() []spec { return []spec{{"ftpd", "Client1", "x86", "regflip"}} }

// checkOutcome compares a campaign's total and counts with the reference.
func checkOutcome(s spec, total int, counts map[string]int) error {
	want, ok := reference[s]
	if !ok {
		return fmt.Errorf("%s: no reference counts", s)
	}
	if total != want.Total || !maps.Equal(counts, want.Counts) {
		return fmt.Errorf("%s: got total %d counts %v, reference %d %v", s, total, counts, want.Total, want.Counts)
	}
	return nil
}

// countsOf renders a Stats outcome map with Table 1 abbreviations.
func countsOf(st *inject.Stats) map[string]int {
	out := make(map[string]int, len(st.Counts))
	for o, n := range st.Counts {
		if n > 0 {
			out[o.String()] = n
		}
	}
	return out
}

// engineConfig resolves a spec against built apps into an engine config.
func engineConfig(apps map[string]*target.App, s spec) (campaign.Config, error) {
	app, ok := apps[s.App]
	if !ok {
		return campaign.Config{}, fmt.Errorf("%s: app not built", s)
	}
	sc, ok := app.Scenario(s.Scenario)
	if !ok {
		return campaign.Config{}, fmt.Errorf("%s: no such scenario", s)
	}
	scheme, err := encoding.Parse(s.Scheme)
	if err != nil {
		return campaign.Config{}, err
	}
	return campaign.Config{App: app, Scenario: sc, Scheme: scheme, Model: s.Model}, nil
}
