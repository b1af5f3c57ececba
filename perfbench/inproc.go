package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/cc"
	_ "faultsec/internal/ftpd" // registers "ftpd"
	_ "faultsec/internal/sshd" // registers "sshd"
	"faultsec/internal/target"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so a few slow repetitions do not move it. Set-up takes tens of
// milliseconds except for service-warm (see warmSetupReps).
const setupReps = 15

// appNames lists the apps a campaign set needs, in first-use order.
func appNames(specs []spec) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range specs {
		if !seen[s.App] {
			seen[s.App] = true
			out = append(out, s.App)
		}
	}
	return out
}

// buildApps builds each app and times it. The first set-up of a process
// goes through the target registry; the registry memoizes, so a repeated
// set-up (rebuild) times the app's own Rebuild hook instead, the same
// cc → asm → link pipeline, and checks that its image equals the
// registry's byte for byte.
func buildApps(names []string, rebuild bool) (map[string]*target.App, map[string]time.Duration, error) {
	apps := make(map[string]*target.App, len(names))
	took := make(map[string]time.Duration, len(names))
	for _, name := range names {
		begin := time.Now()
		app, err := target.Build(name)
		if err != nil {
			return nil, nil, err
		}
		if rebuild {
			begin = time.Now()
			again, err := app.Rebuild(cc.Options{})
			if err != nil {
				return nil, nil, err
			}
			a, b := app.Image, again.Image
			if !bytes.Equal(a.Text, b.Text) || !bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.ROData, b.ROData) {
				return nil, nil, fmt.Errorf("%s: rebuilt image differs from the registry build", name)
			}
		}
		took[name] = time.Since(begin)
		apps[name] = app
	}
	return apps, took, nil
}

// result is what one workload run measured, before it is printed.
type result struct {
	runs     int           // classified results delivered to the caller
	wall     time.Duration // the measured loop, set-up excluded
	times    []float64     // per-campaign milliseconds
	byCamp   map[spec][]float64
	setup    []float64 // seconds per set-up repetition
	rssMiB   float64   // peak RSS after set-up and the first pass
	tally    tally
	passes   int
	passRate []float64 // runs per second of each whole pass
	details  map[string]any
	perLayer map[string]float64
}

func newResult() *result {
	return &result{details: map[string]any{}, perLayer: map[string]float64{}, byCamp: map[spec][]float64{}}
}

// measuring reports whether another pass fits: at least one pass, then
// whole passes until the measuring time is used up.
func (r *result) measuring(seconds time.Duration) bool {
	return r.passes == 0 || r.wall < seconds
}

// addTime records one campaign's time.
func (r *result) addTime(s spec, took time.Duration) {
	r.times = append(r.times, ms(took))
	r.byCamp[s] = append(r.byCamp[s], ms(took))
}

// campaignP50 is the median over the campaign set of each campaign's
// median time across passes. Taking each campaign's median first keeps
// pass-to-pass noise from deciding which of two campaigns of similar
// length sits at the middle of the pooled sample.
func (r *result) campaignP50() float64 {
	var meds []float64
	for _, xs := range r.byCamp {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// endPass records one whole pass over the campaign set.
func (r *result) endPass(took time.Duration, runs int) {
	r.wall += took
	r.passes++
	r.passRate = append(r.passRate, float64(runs)/took.Seconds())
}

// runInProcess is the closed loop of the in-process workloads: one caller,
// one campaign in flight, each through campaign.New(...).Run at the
// default parallelism, in the seed's order, whole passes until the
// measuring time is used up.
func runInProcess(ctx context.Context, specs []spec, seconds time.Duration, seed int64) (*result, error) {
	r := newResult()
	var apps map[string]*target.App
	for i := 0; i < setupReps; i++ {
		begin := time.Now()
		var err error
		if apps, _, err = buildApps(appNames(specs), i > 0); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(begin).Seconds())
	}
	var err error
	cfgs := make([]campaign.Config, len(specs))
	for i, s := range specs {
		if cfgs[i], err = engineConfig(apps, s); err != nil {
			return nil, err
		}
	}

	sched := newSchedule(seed)
	for r.measuring(seconds) {
		pass, runs := time.Now(), r.runs
		for _, i := range sched.order(len(specs)) {
			begin := time.Now()
			st, err := campaign.New(cfgs[i]).Run(ctx)
			took := time.Since(begin)
			if err != nil {
				r.tally.fail("%s: %v", specs[i], err)
				continue
			}
			r.runs += st.Total
			r.addTime(specs[i], took)
			r.tally.check(checkOutcome(specs[i], st.Total, countsOf(st)))
		}
		r.endPass(time.Since(pass), r.runs-runs)
		if r.passes == 1 {
			if r.rssMiB, err = peakRSSMiB(os.Getpid()); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
