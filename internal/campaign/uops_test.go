package campaign_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
)

// runUopsAblation runs the full campaign for one app/scenario under both
// encodings and requires the SHA-256 of json.Marshal(Stats), per-run
// Results included, to equal the digest the legacy interpreter switch
// produced for the same campaign before it was retired to a test-only
// oracle (the uop and legacy engines agreed on all four). Every experiment
// pokes corrupted bytes over live text, so this exercises the bound
// micro-ops in frozen snapshot base tables, overlay rebinds after
// invalidation, and every fault class the handlers can raise (#UD, #GP,
// #DE, memory, fetch, fuel, watchdog).
func runUopsAblation(t *testing.T, app *target.App, sc target.Scenario, want map[string]string) {
	t.Helper()
	for _, scheme := range []encoding.Scheme{encoding.SchemeX86, encoding.SchemeParity} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			st, err := campaign.New(campaign.Config{
				App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
			}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want[scheme.Name()] {
				t.Errorf("stats digest %s, legacy interpreter gave %s\nstats: %+v",
					got, want[scheme.Name()], statsSummary(st))
			}
		})
	}
}

// TestUopsAblationFTPClient1 is the micro-op pipeline's acceptance gate on
// the FTP server campaign.
func TestUopsAblationFTPClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation is not short")
	}
	app, sc := ftpClient1(t)
	runUopsAblation(t, app, sc, map[string]string{
		"x86":    "f7214f23595ab0ba78d5ec94ebc508f62e8fb373dcc022e19103c177554c9141",
		"parity": "38979413cbb6d5922c258395850c077600d05e54968960865bdf86c06837703e",
	})
}

// TestUopsAblationSSHClient1 is the same gate on the SSH server campaign,
// whose Client1 scenario exercises the authentication-rejection path.
func TestUopsAblationSSHClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation is not short")
	}
	app, err := sshd.Build()
	if err != nil {
		t.Fatalf("build sshd: %v", err)
	}
	sc, ok := app.Scenario("Client1")
	if !ok {
		t.Fatal("sshd has no Client1")
	}
	runUopsAblation(t, app, sc, map[string]string{
		"x86":    "baaf7b3b6dbeadd07cc6c57d2d5f752b3a51da65fba34f843a01f49821df2fc5",
		"parity": "fe0e2cdf8d265d0a6037adf71b8d68f2b3c716b2fbc3b466f15f8952471c9523",
	})
}
