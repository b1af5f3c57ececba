package main

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"faultsec/internal/campaign"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // 50..1, unsorted on purpose
	}
	got := tailOf(xs)
	// Sorted 1..50: the 40th smallest has exactly ten samples above it.
	want := tail{Value: 40, Percentile: 80, Samples: 50, Beyond: 10, Supported: true}
	if got != want {
		t.Fatalf("tailOf(1..50) = %+v, want %+v", got, want)
	}
	got = tailOf(xs[:11])
	if got.Value != 40 || got.Beyond != 10 || !got.Supported {
		t.Errorf("tailOf(11 samples) = %+v, want the minimum 40 with ten beyond", got)
	}
}

func TestTailTooFewSamples(t *testing.T) {
	got := tailOf([]float64{5, 9, 7})
	want := tail{Value: 9, Percentile: 100, Samples: 3}
	if got != want {
		t.Errorf("tailOf(3 samples) = %+v, want the maximum marked unsupported %+v", got, want)
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("tailOf(nil) = %+v, want zero", got)
	}
}

func TestTallyFailedShare(t *testing.T) {
	var tl tally
	if tl.share() != 0 {
		t.Fatalf("empty tally share = %v, want 0", tl.share())
	}
	tl.ok()
	tl.check(nil)
	tl.check(errors.New("non-2xx"))
	tl.fail("counts differ for %s", "ftpd")
	if tl.attempted != 4 || tl.failed != 2 || tl.share() != 0.5 {
		t.Errorf("tally = %d attempted, %d failed, share %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.share())
	}
	if want := []string{"non-2xx", "counts differ for ftpd"}; !reflect.DeepEqual(tl.failures, want) {
		t.Errorf("failures = %q, want %q", tl.failures, want)
	}
	for i := 0; i < 100; i++ {
		tl.fail("again")
	}
	if len(tl.failures) != 20 || tl.failed != 102 {
		t.Errorf("after 102 failures: %d kept, %d counted; want 20 kept, 102 counted", len(tl.failures), tl.failed)
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "campaign.run", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "campaign.sweep", Start: 10 * ms, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "vm.run", Start: 12 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "vm.snapshot", Start: 30 * ms, End: 35 * ms},
		{ID: 4, Parent: 0, Name: "vm.run", Start: 60 * ms, End: 90 * ms},
		{ID: 5, Parent: 4, Name: "inject.apply", Start: 60 * ms, End: 61 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// run: 100 - (40 + 30); sweep: 40 - (18 + 5)
		"campaign": 30*ms + 17*ms,
		// 18 + 5 + (30 - 1)
		"vm":     52 * ms,
		"inject": 1 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total time.Duration
	for _, d := range got {
		total += d
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
}

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	ms := time.Millisecond
	spans := []span{{Start: 0, End: 20 * ms}, {Start: 10 * ms, End: 30 * ms}, {Start: 50 * ms, End: 200 * ms}}
	if got := covered(spans, 5*ms, 100*ms); got != 75*ms {
		t.Errorf("covered = %v, want 25ms + 50ms", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("c1")
	tr.begin("campaign.run")
	tr.begin("vm.run")
	tr.end()
	tr.begin("classify.result")
	tr.end()
	tr.end()
	parents := []int{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent}
	if !reflect.DeepEqual(parents, []int{-1, 0, 0}) {
		t.Errorf("parents = %v, want [-1 0 0]", parents)
	}
	for _, s := range tr.spans {
		if s.Campaign != "c1" || s.End < s.Start {
			t.Errorf("span %+v: want campaign c1 and end ≥ start", s)
		}
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	a, b, c := newSchedule(7), newSchedule(7), newSchedule(8)
	differ := false
	for pass := 0; pass < 5; pass++ {
		oa, ob, oc := a.order(12), b.order(12), c.order(12)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("pass %d: seed 7 gave %v and %v", pass, oa, ob)
		}
		if pa, pb := a.pollPhase(pollInterval), b.pollPhase(pollInterval); pa != pb || pa < 0 || pa >= pollInterval {
			t.Fatalf("pass %d: poll phases %v and %v, want equal and in [0, %v)", pass, pa, pb, pollInterval)
		}
		c.pollPhase(pollInterval)
		differ = differ || !reflect.DeepEqual(oa, oc)
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same orders on every pass")
	}
}

// TestCountsDoNotDependOnSeed runs two short campaigns in the order of
// several seeds and checks every result against the reference.
func TestCountsDoNotDependOnSeed(t *testing.T) {
	specs := []spec{{"ftpd", "Client4", "x86", "bitflip"}, {"ftpd", "Client4", "parity", "bitflip"}}
	apps, _, err := buildApps([]string{"ftpd"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, i := range newSchedule(seed).order(len(specs)) {
			cfg, err := engineConfig(apps, specs[i])
			if err != nil {
				t.Fatal(err)
			}
			st, err := campaign.New(cfg).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOutcome(specs[i], st.Total, countsOf(st)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestCheckOutcomeRejectsDrift(t *testing.T) {
	s := spec{"ftpd", "Client1", "x86", "bitflip"}
	good := map[string]int{"NA": 192, "NM": 234, "SD": 474, "FSV": 87, "BRK": 5}
	if err := checkOutcome(s, 992, good); err != nil {
		t.Errorf("reference counts rejected: %v", err)
	}
	bad := map[string]int{"NA": 192, "NM": 234, "SD": 475, "FSV": 87, "BRK": 4}
	if checkOutcome(s, 992, bad) == nil {
		t.Error("one BRK turned SD was accepted")
	}
	if checkOutcome(spec{"ftpd", "Client9", "x86", "bitflip"}, 992, good) == nil {
		t.Error("a campaign without reference counts was accepted")
	}
}
