package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/castore"
	"faultsec/internal/classify"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/vm"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Parent
// is the enclosing span's ID, -1 for the root.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Campaign string        `json:"campaign"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// tracer keeps spans in memory, nested by call order on one goroutine.
type tracer struct {
	t0       time.Time
	campaign string
	spans    []span
	open     []int
}

func newTracer(campaign string) *tracer { return &tracer{t0: time.Now(), campaign: campaign} }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Campaign: t.campaign, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.t0)
	t.open = t.open[:n]
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	reach = lo
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		total += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return total
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// snapEntry is one target's captured prefix state.
type snapEntry struct {
	m                 *vm.Snapshot
	k                 *kernel.Snapshot
	activationSteps   uint64
	bytesAtActivation int
}

// targetGroup is every experiment aimed at one instruction.
type targetGroup struct {
	addr    uint32
	indices []int
}

// groupByTarget groups experiments by target address in first-appearance
// order, the engine's shard order.
func groupByTarget(exps []inject.Experiment) []targetGroup {
	at := make(map[uint32]int)
	var out []targetGroup
	for i := range exps {
		addr := exps[i].Target.Addr
		gi, ok := at[addr]
		if !ok {
			gi = len(out)
			at[addr] = gi
			out = append(out, targetGroup{addr: addr})
		}
		out[gi].indices = append(out[gi].indices, i)
	}
	return out
}

// maxWave is the engine's bound on snapshots held at once; the traced run
// sweeps in waves of the same size so it does the same work.
const maxWave = 256

// vmCounters are the VM's own counters, summed over every machine a run
// used.
type vmCounters struct {
	icacheHits, icacheMisses, traceHits, traceExits, dirtyBytes, fullRestores uint64
}

func (c *vmCounters) add(m *vm.Machine) {
	c.icacheHits += m.ICacheHits
	c.icacheMisses += m.ICacheMisses
	c.traceHits += m.TraceHits
	c.traceExits += m.TraceExits
	c.dirtyBytes += m.DirtyBytesCopied
	c.fullRestores += m.FullRestores
}

// tracedRun is the outcome of one traced campaign.
type tracedRun struct {
	stats        *inject.Stats
	results      []inject.Result
	spans        []span
	wall         time.Duration
	runInsns     uint64 // retired from activation to the end, over snapshot runs
	sweepInsns   uint64 // retired by the golden sweeps
	snapshotRuns int
	waves        int
	vm           vmCounters
	journalBytes int64
}

// traceCampaign drives one campaign at parallelism 1 from the
// benchmark's own code, calling each layer's public functions in the
// engine's order and recording a span around every call: enumeration, the
// golden run, per wave the sweep (image load, Run to each breakpoint,
// Snapshot), per run Restore, Mutation.Apply, Run and ResultFromRun, then
// per run a journal append and per target group a result-store Put and
// Get. dir receives the journal and the store.
func traceCampaign(cfg campaign.Config, id, dir string) (*tracedRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(id)
	out := &tracedRun{}
	tr.begin("campaign.run")
	tr.begin("inject.enumerate")
	exps, err := campaign.EnumerateConfig(&cfg)
	tr.end()
	if err != nil {
		return nil, err
	}
	fuel := cfg.Fuel
	if fuel == 0 {
		fuel = inject.DefaultFuel
	}
	tr.begin("inject.golden_run")
	golden, err := inject.GoldenRun(cfg.App, cfg.Scenario, fuel)
	tr.end()
	if err != nil {
		return nil, err
	}

	jcfg := cfg
	jcfg.Journal = filepath.Join(dir, "traced.jsonl")
	journal, err := campaign.OpenJournal(&jcfg, len(exps), true)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = journal.Abort() // error path: the run already failed
		}
	}()
	store, err := castore.Open(filepath.Join(dir, "castore"))
	if err != nil {
		return nil, err
	}

	naRun := &classify.Run{
		Err:         &vm.ExitStatus{Code: golden.ExitCode},
		ServerBytes: golden.ServerBytes,
		Granted:     golden.Granted,
		EndSteps:    golden.Steps,
	}
	sc := cfg.Scenario
	results := make([]inject.Result, len(exps))
	counts := make(map[string]int)
	done := 0
	var wm *vm.Machine
	groups := groupByTarget(exps)
	for start := 0; start < len(groups); start += maxWave {
		wave := groups[start:min(start+maxWave, len(groups))]
		snaps, err := traceSweep(tr, cfg, wave, fuel, out)
		if err != nil {
			return nil, err
		}
		for _, g := range wave {
			snap := snaps[g.addr]
			for _, idx := range g.indices {
				ex := exps[idx]
				var res inject.Result
				if snap == nil {
					tr.begin("classify.result")
					res = inject.ResultFromRun(golden, ex, naRun, sc.ShouldGrant, 0)
					tr.end()
				} else {
					fresh := sc.New()
					k2 := snap.k.NewKernel(fresh)
					if wm == nil {
						wm = snap.m.NewMachine(k2)
					} else {
						tr.begin("vm.restore")
						err := wm.Restore(snap.m)
						tr.end()
						if err != nil {
							return nil, fmt.Errorf("restore at %#x: %w", g.addr, err)
						}
						wm.Sys = k2
					}
					wm.ClearBreakpoints()
					mut := ex.Mutation()
					tr.begin("inject.apply")
					err := mut.Apply(wm, &ex.Target)
					tr.end()
					if err != nil {
						return nil, fmt.Errorf("inject at %#x: %w", ex.Target.Addr, err)
					}
					tr.begin("vm.run")
					endErr := wm.Run()
					tr.end()
					serverBytes := k2.Transcript.ServerBytes()
					run := &classify.Run{
						Activated:       true,
						Err:             endErr,
						ServerBytes:     serverBytes,
						Granted:         fresh.Granted(),
						ActivationSteps: snap.activationSteps,
						EndSteps:        wm.Steps,
					}
					out.runInsns += wm.Steps - snap.activationSteps
					out.snapshotRuns++
					tr.begin("classify.result")
					res = inject.ResultFromRun(golden, ex, run, sc.ShouldGrant, len(serverBytes)-snap.bytesAtActivation)
					tr.end()
				}
				results[idx] = res
				counts[res.Outcome.String()]++
				done++
				tr.begin("campaign.journal_append")
				err := journal.Append(idx, res, done, counts)
				tr.end()
				if err != nil {
					return nil, err
				}
			}
			if err := storeRoundTrip(tr, store, g, results); err != nil {
				return nil, err
			}
		}
	}
	tr.begin("campaign.journal_close")
	err = journal.Close(done, counts)
	tr.end()
	closed = true
	if err != nil {
		return nil, err
	}
	tr.end()
	if wm != nil {
		out.vm.add(wm)
	}

	out.stats = inject.NewStats(cfg.App.Name, sc.Name, cfg.Scheme, inject.ModelOf(exps))
	for i := range results {
		out.stats.Add(results[i])
	}
	out.results = results
	out.spans = tr.spans
	out.wall = tr.spans[0].dur()
	fi, err := os.Stat(jcfg.Journal)
	if err != nil {
		return nil, err
	}
	out.journalBytes = fi.Size()
	return out, nil
}

// extra is the traced time spent journaling and writing the result store,
// work the untraced engine run does not do.
func (t *tracedRun) extra() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		switch s.Name {
		case "campaign.journal_append", "campaign.journal_close", "castore.put", "castore.get":
			d += s.dur()
		}
	}
	return d
}

// layerWork is the self time of the inject, image, vm and classify spans:
// the work the engine itself delegates to those layers.
func (t *tracedRun) layerWork() time.Duration {
	self := selfTimes(t.spans)
	return self["inject"] + self["image"] + self["vm"] + self["classify"]
}

// traceSweep is the engine's golden sweep: one fault-free session with
// every wave target's breakpoint armed, snapshotting machine and kernel
// at each first hit.
func traceSweep(tr *tracer, cfg campaign.Config, wave []targetGroup, fuel uint64, out *tracedRun) (map[uint32]*snapEntry, error) {
	tr.begin("campaign.sweep")
	defer tr.end()
	out.waves++
	k := kernel.New(cfg.Scenario.New())
	tr.begin("image.load")
	ld, err := cfg.App.Image.Load(k, nil)
	tr.end()
	if err != nil {
		return nil, err
	}
	m := ld.Machine
	m.Fuel = fuel
	for _, g := range wave {
		m.SetBreakpoint(g.addr)
	}
	snaps := make(map[uint32]*snapEntry, len(wave))
	for len(snaps) < len(wave) {
		tr.begin("vm.run")
		runErr := m.Run()
		tr.end()
		var bp *vm.BreakpointHit
		if !errors.As(runErr, &bp) {
			break
		}
		tr.begin("vm.snapshot")
		e := &snapEntry{m: m.Snapshot(), k: k.Snapshot()}
		tr.end()
		e.activationSteps = m.Steps
		e.bytesAtActivation = len(k.Transcript.ServerBytes())
		snaps[bp.Addr] = e
		m.ClearBreakpoint(bp.Addr)
	}
	out.sweepInsns += m.Steps
	out.vm.add(m)
	return snaps, nil
}

// storeRoundTrip writes a target group's results to the result store and
// reads them back.
func storeRoundTrip(tr *tracer, store *castore.Store, g targetGroup, results []inject.Result) error {
	wire := make([]*campaign.WireResult, len(g.indices))
	for i, idx := range g.indices {
		wire[i] = campaign.Wire(results[idx])
	}
	payload, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	key := hex.EncodeToString(sum[:])
	tr.begin("castore.put")
	_, err = store.Put(key, payload)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("castore.get")
	got, err := store.Get(key)
	tr.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("castore: entry %s read back different bytes", key)
	}
	return nil
}
