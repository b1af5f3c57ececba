package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"faultsec/internal/fleet"
)

// pollInterval is how often a caller polls GET /campaigns/{id}. Warm
// campaigns finish in 10-20 ms, so the interval bounds the resolution of
// their campaign time; it is fixed here so both sides of a comparison
// poll alike.
const pollInterval = 2 * time.Millisecond

// warmSetupReps is set-up repetitions for service-warm, whose set-up
// includes a full cold pass.
const warmSetupReps = 2

// daemon is one campaignd subprocess serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	base   string
	dir    string // the -journals directory
	hc     *http.Client
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts campaignd with -journals dir and returns once GET
// /healthz answers 200. Unless keep is set, dir is emptied first.
func startDaemon(bin, dir string, keep bool) (*daemon, error) {
	if !keep {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-journals", dir, "-drain", "5s")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start campaignd: %w", err)
	}
	d := &daemon{
		cmd: cmd, exited: make(chan struct{}), base: "http://" + addr, dir: dir, log: logf,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant; stop reports timeouts
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + fleet.PathHealthz)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("campaignd exited before /healthz answered (log %s.log)", dir)
		case <-time.After(pollInterval):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("campaignd did not answer /healthz within 20s")
		}
	}
}

// stop shuts the daemon down with SIGTERM (SIGKILL after 10 s) and waits
// until the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.hc.CloseIdleConnections()
	d.log.Close()
}

// submitBody is the campaignd POST /campaigns request the benchmark sends.
type submitBody struct {
	App         string   `json:"app"`
	Scenario    string   `json:"scenario"`
	Scheme      string   `json:"scheme,omitempty"`
	FaultModel  string   `json:"faultModel,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Journal     bool     `json:"journal,omitempty"`
	CacheMode   string   `json:"cacheMode,omitempty"`
	Workers     []string `json:"workers,omitempty"`
}

// campaignView is the part of GET /campaigns/{id} the benchmark reads.
type campaignView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Final *struct {
		Total  int            `json:"total"`
		Counts map[string]int `json:"counts"`
	} `json:"final"`
}

// do sends one request and decodes a JSON answer into out, failing on any
// status other than want.
func (d *daemon) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// buildApps makes the daemon build each app through its registry, which
// happens lazily on the first submit naming the app: a submit with an
// empty scenario builds the app and is then refused with 400.
func (d *daemon) buildApps(names []string) error {
	for _, name := range names {
		if err := d.do(http.MethodPost, "/campaigns", submitBody{App: name}, http.StatusBadRequest, nil); err != nil {
			return fmt.Errorf("build %s in campaignd: %w", name, err)
		}
	}
	return nil
}

// campaignRun is one submitted campaign, timed from the POST to the poll
// that first saw it finished.
type campaignRun struct {
	spec   spec
	id     string
	took   time.Duration
	submit time.Duration // POST → 202
	polls  int
	total  int
	counts map[string]int
}

// runCampaign submits one campaign and polls it to completion.
func (d *daemon) runCampaign(ctx context.Context, body submitBody, phase time.Duration) (campaignRun, error) {
	var cr campaignRun
	begin := time.Now()
	var v campaignView
	if err := d.do(http.MethodPost, "/campaigns", body, http.StatusAccepted, &v); err != nil {
		return cr, err
	}
	cr.id, cr.submit = v.ID, time.Since(begin)
	for wait := phase; v.State == "running"; wait = pollInterval {
		select {
		case <-ctx.Done():
			return cr, ctx.Err()
		case <-time.After(wait):
		}
		cr.polls++
		if err := d.do(http.MethodGet, "/campaigns/"+cr.id, nil, http.StatusOK, &v); err != nil {
			return cr, err
		}
	}
	cr.took = time.Since(begin)
	if v.State != "done" || v.Final == nil {
		return cr, fmt.Errorf("campaign %s ended %q: %s", cr.id, v.State, v.Error)
	}
	cr.total, cr.counts = v.Final.Total, v.Final.Counts
	return cr, nil
}

// serviceBody is the submit body of the service workloads: a fleet of the
// daemon's own worker endpoint once per CPU at parallelism 1, so the fleet
// runs as many engine workers as the in-process workloads (2 × 1 on a
// 2-CPU host). Cold submits journal and write the result store; warm ones
// only read the store.
func serviceBody(d *daemon, s spec, warm bool) submitBody {
	b := submitBody{
		App: s.App, Scenario: s.Scenario, Scheme: s.Scheme, FaultModel: s.Model,
		Parallelism: 1,
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		b.Workers = append(b.Workers, d.base)
	}
	if warm {
		b.CacheMode = "read"
	} else {
		b.Journal, b.CacheMode = true, "readwrite"
	}
	return b
}

// resetStore deletes the journals and result-store entries a cold pass
// wrote, so the next cold pass neither resumes nor adopts anything.
func (d *daemon) resetStore() error {
	journals, err := filepath.Glob(filepath.Join(d.dir, "*.jsonl"))
	if err != nil {
		return err
	}
	entries, err := filepath.Glob(filepath.Join(d.dir, "castore", "*"))
	if err != nil {
		return err
	}
	for _, p := range append(journals, entries...) {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// servicePass submits every campaign once in the schedule's order and checks
// each against the reference (and, when prev is set, against the counts
// of an earlier pass).
func servicePass(ctx context.Context, d *daemon, specs []spec, sched *schedule, warm bool,
	prev map[spec]map[string]int, t *tally) ([]campaignRun, map[spec]map[string]int) {
	var runs []campaignRun
	counts := make(map[spec]map[string]int, len(specs))
	for _, i := range sched.order(len(specs)) {
		s := specs[i]
		cr, err := d.runCampaign(ctx, serviceBody(d, s, warm), sched.pollPhase(pollInterval))
		if err != nil {
			t.fail("%s: %v", s, err)
			continue
		}
		cr.spec = s
		runs = append(runs, cr)
		counts[s] = cr.counts
		err = checkOutcome(s, cr.total, cr.counts)
		if err == nil && prev != nil && !maps.Equal(prev[s], cr.counts) {
			err = fmt.Errorf("%s: warm counts %v differ from the cold pass %v", s, cr.counts, prev[s])
		}
		t.check(err)
	}
	return runs, counts
}

// metricsView is the part of campaignd's GET /metrics the benchmark reads.
type metricsView struct {
	Fleet            map[string]fleet.Metrics `json:"fleet"`
	ICacheHits       int64                    `json:"icacheHits"`
	TraceHits        int64                    `json:"traceHits"`
	DirtyBytesCopied int64                    `json:"dirtyBytesCopied"`
}

// checkFleetCache verifies from GET /metrics that every warm campaign was
// adopted whole from the result store and every cold one executed.
func checkFleetCache(mv *metricsView, runs []campaignRun, warm bool, t *tally) {
	for _, cr := range runs {
		fm, ok := mv.Fleet[cr.id]
		switch {
		case !ok:
			t.fail("campaign %s missing from GET /metrics", cr.id)
		case warm && (fm.CacheHits != int64(cr.total) || fm.RunsTotal != 0):
			t.fail("warm campaign %s: %d of %d runs adopted, %d executed", cr.id, fm.CacheHits, cr.total, fm.RunsTotal)
		case !warm && (fm.CacheHits != 0 || fm.RunsTotal != int64(cr.total)):
			t.fail("cold campaign %s: %d runs adopted, %d of %d executed", cr.id, fm.CacheHits, fm.RunsTotal, cr.total)
		default:
			t.ok()
		}
	}
}

// startBuilt starts a daemon and has it build the apps specs need.
func startBuilt(env *benchEnv, dir string, keep bool, specs []spec) (*daemon, error) {
	d, err := startDaemon(env.daemon, dir, keep)
	if err != nil {
		return nil, err
	}
	if err := d.buildApps(appNames(specs)); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// checkCampaigns reads GET /metrics and checks the given campaigns'
// cache counters. It returns what it read.
func (d *daemon) checkCampaigns(runs []campaignRun, warm bool, t *tally) *metricsView {
	var mv metricsView
	if err := d.do(http.MethodGet, "/metrics", nil, http.StatusOK, &mv); err != nil {
		t.fail("GET /metrics: %v", err)
		return &mv
	}
	checkFleetCache(&mv, runs, warm, t)
	return &mv
}

// passesPerDaemon bounds how many passes one daemon serves. campaignd keeps
// every campaign resident, so without a restart its memory would grow with
// the number of passes a commit fits into the measuring time.
const passesPerDaemon = 20

// serviceSetup starts a daemon, has it build the apps and, for the warm
// workload, fills its result store with one cold pass.
func serviceSetup(ctx context.Context, env *benchEnv, specs []spec, dir string, warm bool,
	t *tally) (*daemon, map[spec]map[string]int, error) {
	d, err := startBuilt(env, dir, false, specs)
	if err != nil {
		return nil, nil, err
	}
	if !warm {
		return d, nil, nil
	}
	_, cold := servicePass(ctx, d, specs, newSchedule(env.seed), false, nil, t)
	return d, cold, nil
}

// runService is the closed loop of the service workloads: one caller
// submits a campaign to a campaignd subprocess, polls it to completion,
// and submits the next, whole passes in the seed's order until the
// measuring time is used up.
func runService(ctx context.Context, env *benchEnv, specs []spec, warm bool) (*result, error) {
	r := newResult()
	reps := setupReps
	if warm {
		reps = warmSetupReps
	}
	var (
		d    *daemon
		cold map[spec]map[string]int
	)
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		begin := time.Now()
		var err error
		d, cold, err = serviceSetup(ctx, env, specs, filepath.Join(env.work, fmt.Sprintf("campaignd-%d", i)), warm, &r.tally)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(begin).Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	var all, served []campaignRun
	sched := newSchedule(env.seed)
	for r.measuring(env.seconds) {
		if r.passes > 0 && r.passes%passesPerDaemon == 0 {
			// A fresh daemon on the same directory keeps the journals and
			// the result store. The restart is not timed.
			d.checkCampaigns(served, warm, &r.tally)
			served = nil
			d.stop()
			next, err := startBuilt(env, d.dir, true, specs)
			if err != nil {
				d = nil
				return nil, err
			}
			d = next
		}
		begin := time.Now()
		runs, _ := servicePass(ctx, d, specs, sched, warm, cold, &r.tally)
		took := time.Since(begin)
		n := 0
		for _, cr := range runs {
			n += cr.total
		}
		r.endPass(took, n)
		all = append(all, runs...)
		served = append(served, runs...)
		if r.passes == 1 {
			var err error
			if r.rssMiB, err = peakRSSMiB(d.cmd.Process.Pid); err != nil {
				return nil, err
			}
		}
		if !warm {
			if err := d.resetStore(); err != nil {
				return nil, err
			}
		}
	}
	var polls, submits []float64
	for _, cr := range all {
		r.runs += cr.total
		r.addTime(cr.spec, cr.took)
		polls = append(polls, float64(cr.polls))
		submits = append(submits, ms(cr.submit))
	}
	mv := d.checkCampaigns(served, warm, &r.tally)
	var err error
	if r.details["peak_rss_mb_end"], err = peakRSSMiB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	r.details["poll_interval_ms"] = ms(pollInterval)
	r.details["polls_per_campaign"] = mean(polls)
	r.details["submit_ms_p50"] = median(submits)
	r.details["daemon_vm_counters"] = daemonVMCounters(mv)
	return r, nil
}

// daemonVMCounters reports the VM counters of GET /metrics. Campaigns
// served by fleet workers do not fold the workers' VM counters into it, so
// they read 0 however many runs executed: a known gap, left to in-program
// tracing. Zero counters are reported as absent (null), not as 0.
func daemonVMCounters(mv *metricsView) map[string]any {
	if mv.ICacheHits == 0 && mv.TraceHits == 0 && mv.DirtyBytesCopied == 0 {
		return map[string]any{
			"icacheHits": nil, "traceHits": nil, "dirtyBytesCopied": nil,
			"reason": "fleet workers do not export VM counters to GET /metrics",
		}
	}
	return map[string]any{"icacheHits": mv.ICacheHits, "traceHits": mv.TraceHits, "dirtyBytesCopied": mv.DirtyBytesCopied}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
