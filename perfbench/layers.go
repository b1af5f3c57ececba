package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/disasm"
	"faultsec/internal/fleet"
	"faultsec/internal/inject"
	"faultsec/internal/target"
	"faultsec/internal/x86"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerMetrics is every metric a traced run prints. BENCHMARK.json's
// per_layer list names exactly these (benchmark_test.go checks it).
var perLayerMetrics = []layerMetric{
	{"target.build_s.ftpd", "s", "lower"},
	{"target.build_s.sshd", "s", "lower"},
	{"x86.decode_ns", "ns", "lower"},
	{"vm.ns_per_insn", "ns", "lower"},
	{"vm.insns_per_run", "count", "lower"},
	{"vm.restore_us", "us", "lower"},
	{"vm.restore_bytes_per_run", "bytes", "lower"},
	{"vm.full_restores", "count", "lower"},
	{"vm.snapshot_us", "us", "lower"},
	{"vm.icache_hit_rate", "ratio", "higher"},
	{"vm.trace_hits_per_run", "count", "higher"},
	{"vm.trace_exit_share", "ratio", "lower"},
	{"inject.golden_run_ms", "ms", "lower"},
	{"inject.enumerate_ms", "ms", "lower"},
	{"inject.apply_ns", "ns", "lower"},
	{"classify.result_ns", "ns", "lower"},
	{"campaign.sweep_ms", "ms", "lower"},
	{"campaign.prefix_runs", "count", "lower"},
	{"campaign.snapshot_runs", "count", "lower"},
	{"campaign.synthesized_na", "count", "higher"},
	{"campaign.worker_utilization", "ratio", "higher"},
	{"campaign.sched_share", "ratio", "lower"},
	{"campaign.journal_append_us", "us", "lower"},
	{"campaign.journal_append_sync_us", "us", "lower"},
	{"campaign.journal_close_ms", "ms", "lower"},
	{"campaign.journal_bytes_per_run", "bytes", "lower"},
	{"castore.get_us", "us", "lower"},
	{"castore.put_us", "us", "lower"},
	{"castore.bytes_per_entry", "bytes", "lower"},
	{"castore.hit_share", "ratio", "higher"},
	{"fleet.shards", "count", "lower"},
	{"fleet.shard_attempts", "count", "lower"},
	{"fleet.ndjson_bytes_per_run", "bytes", "lower"},
	{"fleet.shard_ms", "ms", "lower"},
	{"campaignd.submit_ms", "ms", "lower"},
	{"campaignd.polls_per_campaign", "count", "lower"},
	{"campaignd.poll_interval_ms", "ms", "lower"},
	{"campaignd.metrics_ms", "ms", "lower"},
	{"trace.self_ms.campaign", "ms", "lower"},
	{"trace.self_ms.inject", "ms", "lower"},
	{"trace.self_ms.image", "ms", "lower"},
	{"trace.self_ms.vm", "ms", "lower"},
	{"trace.self_ms.classify", "ms", "lower"},
	{"trace.self_ms.castore", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// exactCounters must repeat exactly across runs of one commit.
var exactCounters = []string{
	"vm.insns_per_run", "vm.restore_bytes_per_run", "campaign.prefix_runs",
	"campaign.snapshot_runs", "campaign.synthesized_na", "fleet.shards", "castore.hit_share",
}

func unitOf(name string) string {
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// workloadSpecs is a workload's campaign set.
func workloadSpecs(name string) ([]spec, error) {
	switch name {
	case "paper-tables", "service-cold", "service-warm":
		return paperTables(), nil
	case "regflip-ftpd":
		return regflipFTPD(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, workloadNames)
}

// traceWorkload is the separate traced run that gives the per-layer
// metrics. It measures the workload's representative campaign (its first)
// in-process at parallelism 1, traced and untraced; the workload's whole
// campaign set at the default parallelism for utilization; and the
// service layers through a campaignd subprocess: the workload's own cold
// or warm pass for the service workloads, a cold then warm submit of the
// representative campaign for the in-process ones.
func traceWorkload(ctx context.Context, env *benchEnv, name string) (*result, error) {
	specs, err := workloadSpecs(name)
	if err != nil {
		return nil, err
	}
	r := newResult()
	rep := specs[0]
	dir := filepath.Join(env.work, "trace-"+name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	builds := map[string][]float64{}
	var apps map[string]*target.App
	for i := 0; i < setupReps; i++ {
		var took map[string]time.Duration
		if apps, took, err = buildApps([]string{"ftpd", "sshd"}, i > 0); err != nil {
			return nil, err
		}
		for n, d := range took {
			builds[n] = append(builds[n], d.Seconds())
		}
	}
	for n, xs := range builds {
		r.perLayer["target.build_s."+n] = median(xs)
	}
	if r.perLayer["x86.decode_ns"], err = decodeNs(apps); err != nil {
		return nil, err
	}
	if err := probeInProcess(ctx, r, apps, rep, dir); err != nil {
		return nil, err
	}
	if err := probeUtilization(ctx, r, apps, specs); err != nil {
		return nil, err
	}
	if err := probeService(ctx, env, r, name, specs, apps, rep, dir); err != nil {
		return nil, err
	}
	for _, m := range perLayerMetrics {
		if _, ok := r.perLayer[m.Name]; !ok {
			r.tally.fail("per-layer metric %s was not measured", m.Name)
		}
	}
	return r, nil
}

// decodeNs times x86.DecodeInto over every instruction start of the ftpd
// and sshd text sections: the median over rounds of ns per decode.
func decodeNs(apps map[string]*target.App) (float64, error) {
	type start struct {
		code []byte
		off  int
	}
	var starts []start
	for _, name := range []string{"ftpd", "sshd"} {
		img := apps[name].Image
		for _, e := range disasm.Sweep(img.Text, img.TextBase, 0, uint32(len(img.Text))) {
			if !e.Bad {
				starts = append(starts, start{img.Text, int(e.Addr - img.TextBase)})
			}
		}
	}
	if len(starts) == 0 {
		return 0, fmt.Errorf("no instruction starts to decode")
	}
	var in x86.Inst
	var rounds []float64
	for round := 0; round < 21; round++ {
		begin := time.Now()
		for _, s := range starts {
			if err := x86.DecodeInto(&in, s.code[s.off:min(s.off+x86.MaxInstLen, len(s.code))]); err != nil {
				return 0, fmt.Errorf("decode at %#x: %w", s.off, err)
			}
		}
		rounds = append(rounds, float64(time.Since(begin))/float64(len(starts)))
	}
	return median(rounds), nil
}

// probeInProcess runs the representative campaign at parallelism 1 on the
// engine and traced, alternately and up to five times each, checks that
// both did the same work, and derives the vm, inject, classify, campaign,
// castore and trace metrics from the first traced run.
func probeInProcess(ctx context.Context, r *result, apps map[string]*target.App, rep spec, dir string) error {
	cfg, err := engineConfig(apps, rep)
	if err != nil {
		return err
	}
	cfg.Parallelism = 1
	// Untraced engine runs and traced runs alternate, so host noise hits
	// both sides of the overhead comparison alike.
	var (
		walls, tracedWalls, works []float64
		ref                       *inject.Stats
		em                        campaign.Metrics
		tr                        *tracedRun
	)
	begin := time.Now()
	for i := 0; i < 5 && (i == 0 || time.Since(begin) < 4*time.Second); i++ {
		eng := campaign.New(cfg)
		t0 := time.Now()
		st, err := eng.Run(ctx)
		walls = append(walls, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("%s at parallelism 1: %w", rep, err)
		}
		r.tally.check(checkOutcome(rep, st.Total, countsOf(st)))
		m := eng.Metrics()
		if ref == nil {
			ref, em = st, m
		} else if !reflect.DeepEqual(st, ref) || m.PrefixRuns != em.PrefixRuns || m.SnapshotRuns != em.SnapshotRuns ||
			m.SynthesizedNA != em.SynthesizedNA || m.DirtyBytesCopied != em.DirtyBytesCopied || m.FullRestores != em.FullRestores {
			r.tally.fail("%s: engine Stats or counters at parallelism 1 differ between repetitions", rep)
		}

		t, err := traceCampaign(cfg, rep.String(), filepath.Join(dir, fmt.Sprintf("traced-%d", i)))
		if err != nil {
			return fmt.Errorf("traced %s: %w", rep, err)
		}
		tracedWalls = append(tracedWalls, (t.wall - t.extra()).Seconds())
		works = append(works, t.layerWork().Seconds())
		if reflect.DeepEqual(t.stats, ref) {
			r.tally.ok()
		} else {
			r.tally.fail("%s: traced Stats differ from the engine's", rep)
		}
		if tr == nil {
			tr = t
		}
	}
	engineWall := median(walls)
	engineVM := vmCounters{
		icacheHits: uint64(em.ICacheHits), icacheMisses: uint64(em.ICacheMisses),
		traceHits: uint64(em.TraceHits), traceExits: uint64(em.TraceExits),
		dirtyBytes: uint64(em.DirtyBytesCopied), fullRestores: uint64(em.FullRestores),
	}
	if tr.vm != engineVM || int64(tr.waves) != em.PrefixRuns || int64(tr.snapshotRuns) != em.SnapshotRuns {
		r.tally.fail("%s: traced run did other VM work than the engine (traced %+v waves %d runs %d; engine %+v)",
			rep, tr.vm, tr.waves, tr.snapshotRuns, engineVM)
	} else {
		r.tally.ok()
	}
	spansFile := filepath.Join(dir, "spans.json")
	if err := writeSpans(spansFile, tr.spans); err != nil {
		return err
	}

	sp := tr.spans
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, s := range sp {
			if s.Name == name {
				d += s.dur()
			}
		}
		return d
	}
	perRun := func(n int64) float64 { return float64(n) / float64(max(em.SnapshotRuns, 1)) }
	pl := r.perLayer
	pl["vm.ns_per_insn"] = float64(sum("vm.run")) / float64(tr.runInsns+tr.sweepInsns)
	pl["vm.insns_per_run"] = float64(tr.runInsns) / float64(max(tr.snapshotRuns, 1))
	pl["vm.restore_us"] = median(durations(sp, "vm.restore")) / 1e3
	pl["vm.restore_bytes_per_run"] = perRun(em.DirtyBytesCopied)
	pl["vm.full_restores"] = float64(em.FullRestores)
	pl["vm.snapshot_us"] = median(durations(sp, "vm.snapshot")) / 1e3
	pl["vm.icache_hit_rate"] = em.ICacheHitRate
	pl["vm.trace_hits_per_run"] = perRun(em.TraceHits)
	pl["vm.trace_exit_share"] = float64(em.TraceExits) / float64(max(em.TraceHits, 1))
	pl["inject.golden_run_ms"] = ms(sum("inject.golden_run"))
	pl["inject.enumerate_ms"] = ms(sum("inject.enumerate"))
	pl["inject.apply_ns"] = median(durations(sp, "inject.apply"))
	pl["classify.result_ns"] = median(durations(sp, "classify.result"))
	pl["campaign.sweep_ms"] = ms(sum("campaign.sweep")) / float64(tr.waves)
	pl["campaign.prefix_runs"] = float64(em.PrefixRuns)
	pl["campaign.snapshot_runs"] = float64(em.SnapshotRuns)
	pl["campaign.synthesized_na"] = float64(em.SynthesizedNA)
	pl["campaign.journal_append_us"] = median(durations(sp, "campaign.journal_append")) / 1e3
	pl["campaign.journal_close_ms"] = ms(sum("campaign.journal_close"))
	pl["campaign.journal_bytes_per_run"] = float64(tr.journalBytes) / float64(len(tr.results))
	pl["castore.get_us"] = median(durations(sp, "castore.get")) / 1e3
	pl["castore.put_us"] = median(durations(sp, "castore.put")) / 1e3

	self := selfTimes(sp)
	for _, layer := range []string{"campaign", "inject", "image", "vm", "classify", "castore"} {
		pl["trace.self_ms."+layer] = ms(self[layer])
	}
	// The engine at parallelism 1 does what the inject, image, vm and
	// classify spans cover plus its own scheduling; the rest of its wall
	// time is the scheduling share.
	pl["campaign.sched_share"] = max(0, engineWall-median(works)) / engineWall
	// The traced run also journals and writes the store, which the
	// untraced engine run does not; tracedRun.extra excludes that time.
	overhead := median(tracedWalls) - engineWall
	pl["trace.overhead_ms"] = overhead * 1e3
	pl["trace.overhead_share"] = overhead / engineWall

	if pl["campaign.journal_append_sync_us"], err = syncAppendUs(cfg, tr.results, dir); err != nil {
		return err
	}
	r.details["traced_campaign"] = rep.String()
	r.details["engine_p1_wall_ms"] = engineWall * 1e3
	r.details["p1_pairs"] = len(walls)
	r.details["traced_p1_wall_ms"] = median(tracedWalls) * 1e3
	r.details["spans"] = len(sp)
	r.details["spans_file"] = spansFile // under the checkout's .bench_build/
	return nil
}

// syncAppendUs times journal appends that each fsync: a checkpoint after
// every run with CheckpointSync set, over the first 64 results.
func syncAppendUs(cfg campaign.Config, results []inject.Result, dir string) (float64, error) {
	cfg.Journal = filepath.Join(dir, "sync.jsonl")
	cfg.CheckpointEvery, cfg.CheckpointSync = 1, true
	j, err := campaign.OpenJournal(&cfg, len(results), true)
	if err != nil {
		return 0, err
	}
	counts := map[string]int{}
	var took []float64
	for i := 0; i < min(64, len(results)); i++ {
		counts[results[i].Outcome.String()]++
		begin := time.Now()
		if err := j.Append(i, results[i], i+1, counts); err != nil {
			_ = j.Abort() // already failing
			return 0, err
		}
		took = append(took, us(time.Since(begin)))
	}
	return median(took), j.Close(len(took), counts)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probeUtilization runs the workload's campaign set once at the default
// parallelism and reports the engines' worker utilization, weighted by
// campaign wall time.
func probeUtilization(ctx context.Context, r *result, apps map[string]*target.App, specs []spec) error {
	var busy, wall float64
	for _, s := range specs {
		cfg, err := engineConfig(apps, s)
		if err != nil {
			return err
		}
		eng := campaign.New(cfg)
		begin := time.Now()
		st, err := eng.Run(ctx)
		w := time.Since(begin).Seconds()
		if err != nil {
			r.tally.fail("%s: %v", s, err)
			continue
		}
		r.tally.check(checkOutcome(s, st.Total, countsOf(st)))
		busy += eng.Metrics().WorkerUtilization * w
		wall += w
	}
	r.perLayer["campaign.worker_utilization"] = busy / wall
	return nil
}

// probeService measures castore, fleet and campaignd through a campaignd
// subprocess. The measured pass is the workload's own for the service
// workloads (cold for service-cold, warm for service-warm) and a warm
// resubmit of the representative campaign for the in-process ones; the
// fleet counts come from the cold pass, the one that leases shards.
func probeService(ctx context.Context, env *benchEnv, r *result, name string, specs []spec,
	apps map[string]*target.App, rep spec, dir string) error {
	set := []spec{rep}
	if strings.HasPrefix(name, "service-") {
		set = specs
	}
	warm := name != "service-cold"
	sched := newSchedule(env.seed)
	d, err := startBuilt(env, filepath.Join(dir, "campaignd"), false, set)
	if err != nil {
		return err
	}
	defer d.stop()
	coldRuns, cold := servicePass(ctx, d, set, sched, false, nil, &r.tally)
	measured := coldRuns
	if warm {
		measured, _ = servicePass(ctx, d, set, sched, true, cold, &r.tally)
	}

	var (
		mv   metricsView
		took []float64
	)
	for i := 0; i < 11; i++ {
		begin := time.Now()
		if err := d.do(http.MethodGet, "/metrics", nil, http.StatusOK, &mv); err != nil {
			return fmt.Errorf("GET /metrics: %w", err)
		}
		took = append(took, ms(time.Since(begin)))
	}
	checkFleetCache(&mv, coldRuns, false, &r.tally)
	if warm {
		checkFleetCache(&mv, measured, true, &r.tally)
	}

	var submits, polls []float64
	var hits, misses int64
	for _, cr := range measured {
		submits = append(submits, ms(cr.submit))
		polls = append(polls, float64(cr.polls))
		fm := mv.Fleet[cr.id]
		hits += fm.CacheHits
		misses += fm.CacheMisses
	}
	// Every shard is leased once; failed and speculative attempts lease
	// it again.
	var shards, attempts int
	for _, cr := range coldRuns {
		fm := mv.Fleet[cr.id]
		shards += fm.ShardsTotal
		attempts += fm.ShardsTotal + int(fm.SpeculativeAttempts)
		for _, sh := range fm.Shards {
			attempts += sh.Attempts
		}
	}
	pl := r.perLayer
	pl["campaignd.submit_ms"] = median(submits)
	pl["campaignd.polls_per_campaign"] = mean(polls)
	pl["campaignd.poll_interval_ms"] = ms(pollInterval)
	pl["campaignd.metrics_ms"] = median(took)
	pl["castore.hit_share"] = float64(hits) / float64(max(hits+misses, 1))
	pl["fleet.shards"] = float64(shards)
	pl["fleet.shard_attempts"] = float64(attempts)
	storeBytes, entries, err := storeSize(filepath.Join(d.dir, "castore"))
	if err != nil {
		return err
	}
	pl["castore.bytes_per_entry"] = float64(storeBytes) / float64(max(entries, 1))
	r.details["service_campaigns"] = len(set)
	r.details["layer_sources"] = map[string]string{
		"vm, inject, classify, campaign counts, journal, castore get/put, trace": "traced and untraced in-process runs of " + rep.String() + " at parallelism 1",
		"campaign.worker_utilization":                                            "the workload's campaign set in-process at the default parallelism",
		"campaignd, castore.hit_share, castore.bytes_per_entry, fleet.shards":    "campaignd GET /metrics and its result store",
		"fleet.shard_ms, fleet.ndjson_bytes_per_run":                             "fleet.HTTPWorker.RunShard against campaignd, " + rep.String(),
	}
	r.details["daemon_vm_counters"] = daemonVMCounters(&mv)
	return probeShards(ctx, r, d, apps, rep)
}

// storeSize sums the sizes of a result store's entries.
func storeSize(dir string) (int64, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	n := 0
	for _, e := range ents {
		if e.IsDir() || len(e.Name()) != 2*sha256.Size {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
		n++
	}
	return total, n, nil
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, &t.bytes}
	return resp, nil
}

// probeShards drives the daemon's worker endpoint directly through
// fleet.HTTPWorker: the representative campaign in shards of whole target
// groups, cache off, one shard at a time. It times RunShard and counts the
// NDJSON bytes streamed back, and checks the merged counts.
func probeShards(ctx context.Context, r *result, d *daemon, apps map[string]*target.App, rep spec) error {
	cfg, err := engineConfig(apps, rep)
	if err != nil {
		return err
	}
	exps, err := campaign.EnumerateConfig(&cfg)
	if err != nil {
		return err
	}
	ct := &countingTransport{}
	w := fleet.NewHTTPWorker(d.base, &http.Client{Transport: ct})
	var mu sync.Mutex
	got := make([]*campaign.WireResult, len(exps))
	var took []float64
	for i, idxs := range shardIndices(exps, max(32, len(exps)/16)) {
		spec := fleet.ShardSpec{
			App: rep.App, Scenario: rep.Scenario, Scheme: rep.Scheme, Model: campaign.WireModel(rep.Model),
			Parallelism: 1, Total: len(exps), Shard: i, Indices: idxs,
		}
		begin := time.Now()
		err := w.RunShard(ctx, spec, func(idx int, wr *campaign.WireResult) {
			mu.Lock()
			got[idx] = wr
			mu.Unlock()
		})
		took = append(took, ms(time.Since(begin)))
		r.tally.check(err)
	}
	st := inject.NewStats(cfg.App.Name, cfg.Scenario.Name, cfg.Scheme, inject.ModelOf(exps))
	for i, wr := range got {
		if wr == nil {
			r.tally.fail("%s: shard probe returned no result for run %d", rep, i)
			return nil
		}
		st.Add(wr.ToResult(exps[i]))
	}
	r.tally.check(checkOutcome(rep, st.Total, countsOf(st)))
	r.perLayer["fleet.ndjson_bytes_per_run"] = float64(ct.bytes.Load()) / float64(len(exps))
	r.perLayer["fleet.shard_ms"] = median(took)
	return nil
}

// shardIndices splits an enumeration into shards of whole target groups
// holding at least n experiments each (the last may hold fewer).
func shardIndices(exps []inject.Experiment, n int) [][]int {
	var out [][]int
	var cur []int
	for _, g := range groupByTarget(exps) {
		cur = append(cur, g.indices...)
		if len(cur) >= n {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// checkExactCounters compares a traced run's deterministic counters with
// those an earlier run of the same source recorded under work, and
// records them when no earlier run did.
func checkExactCounters(work, digest, workload string, r *result) error {
	if len(r.perLayer) == 0 {
		return nil
	}
	path := filepath.Join(work, "exact-counters.json")
	all := map[string]map[string]map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	mine := map[string]float64{}
	for _, name := range exactCounters {
		mine[name] = r.perLayer[name]
	}
	if prev, ok := all[digest][workload]; ok {
		var diff []string
		for _, name := range exactCounters {
			if prev[name] != mine[name] {
				diff = append(diff, fmt.Sprintf("%s %v (earlier run: %v)", name, mine[name], prev[name]))
			}
		}
		if len(diff) > 0 {
			sort.Strings(diff)
			return fmt.Errorf("deterministic counters changed between runs of the same source: %s", strings.Join(diff, "; "))
		}
		r.details["exact_counters"] = "equal to an earlier run of the same source"
		return nil
	}
	if all[digest] == nil {
		all[digest] = map[string]map[string]float64{}
	}
	all[digest][workload] = mine
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	r.details["exact_counters"] = "first run of this source: recorded"
	return os.Rename(tmp, path)
}
