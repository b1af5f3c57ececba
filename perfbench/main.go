// Command perfbench is the repository's campaign benchmark. One workload
// per invocation:
//
//	perfbench --workload paper-tables --seed 1 --seconds 25 --trace 0
//
// Workloads: paper-tables, regflip-ftpd, service-cold, service-warm, or
// all (each in turn). With --trace 0 it prints the end-to-end metrics of
// the workload; with --trace 1 the per-layer breakdown from a separate,
// traced run. Every campaign's outcome counts are checked against pinned
// reference data. The last line of standard output is the result object;
// the line before it is a report with the host record and details.
// perfbench/run.sh builds this program and campaignd from the checkout
// and runs it from the checkout root; everything the benchmark writes goes
// under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloadNames are the workloads the benchmark knows. BENCHMARK.json
// gates on all but regflip-ftpd: one of its campaigns takes 6-8 s on a
// 2-CPU host, too few samples per run for its figures to be steady there.
var workloadNames = []string{"paper-tables", "regflip-ftpd", "service-cold", "service-warm"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() { os.Exit(run()) }

// run parses the command line, runs the workloads and returns the exit
// code: 0 when every check passed, 1 when one failed, 2 on bad usage.
func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name or \"all\"")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the campaign submission order")
	flag.IntVar(&seconds, "seconds", 25, "measuring time per run, in whole passes over the campaign set")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		correct, err := runWorkload(ctx, o, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if !correct {
			code = 1
		}
	}
	return code
}

// metric is one named value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload measures one workload, prints its report and result lines
// and tells whether every check passed. It runs from the checkout root.
func runWorkload(ctx context.Context, o options, name string) (bool, error) {
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	h, err := host(root)
	if err != nil {
		return false, err
	}
	env := &benchEnv{
		work:   filepath.Join(root, ".bench_build", "work"),
		daemon: filepath.Join(root, ".bench_build", "campaignd"),
		seed:   o.seed, seconds: o.seconds,
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return false, err
	}

	var r *result
	if o.trace {
		r, err = traceWorkload(ctx, env, name)
	} else {
		r, err = measureWorkload(ctx, env, name)
	}
	if err != nil {
		return false, err
	}
	if err := checkExactCounters(env.work, h.SourceDigest, name, r); err != nil {
		r.tally.fail("%v", err)
	}

	line := resultLine{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		for k, v := range r.perLayer {
			line.Metrics[k] = metric{v, unitOf(k)}
		}
	} else {
		t := tailOf(r.times)
		line.Metrics["runs_per_sec"] = metric{median(r.passRate), "runs/s"}
		line.Metrics["campaign_p50_ms"] = metric{r.campaignP50(), "ms"}
		line.Metrics["campaign_tail_ms"] = metric{t.Value, "ms"}
		line.Metrics["setup_s"] = metric{median(r.setup), "s"}
		line.Metrics["peak_rss_mb"] = metric{r.rssMiB, "MiB"}
		r.details["campaign_tail"] = t
		r.details["campaigns"] = len(r.times)
		r.details["passes"] = r.passes
		r.details["runs"] = r.runs
		r.details["wall_s"] = r.wall.Seconds()
		r.details["runs_per_sec_overall"] = float64(r.runs) / r.wall.Seconds()
		r.details["runs_per_sec_passes"] = r.passRate
		r.details["setup_samples_s"] = r.setup
	}
	if len(r.tally.failures) > 0 {
		r.details["failures"] = r.tally.failures
	}
	// failed_share is 0 whenever the run is correct, so it is reported
	// here and through the result line's attempted and failed counts
	// rather than as a bounded metric.
	metrics := append(sortedMetrics(line.Metrics),
		fmt.Sprintf("failed_share %.6g ratio (%d attempted)", r.tally.share(), r.tally.attempted))
	report := map[string]any{
		"workload": name,
		"seed":     o.seed,
		"trace":    o.trace,
		"seconds":  o.seconds.Seconds(),
		"host":     h,
		"details":  r.details,
		"metrics":  metrics,
	}
	if err := printJSON(report); err != nil {
		return false, err
	}
	return line.Correct, printJSON(line)
}

// sortedMetrics renders metrics as "name value unit" lines for a reader.
func sortedMetrics(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s %.6g %s", k, m[k].Value, m[k].Unit))
	}
	return out
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// benchEnv is what every workload needs: where to write, the campaignd
// binary, and the command line's seed and measuring time.
type benchEnv struct {
	work, daemon string
	seed         int64
	seconds      time.Duration
}

// measureWorkload is the untraced run that gives the end-to-end metrics.
func measureWorkload(ctx context.Context, env *benchEnv, name string) (*result, error) {
	specs, err := workloadSpecs(name)
	if err != nil {
		return nil, err
	}
	switch name {
	case "service-cold", "service-warm":
		return runService(ctx, env, specs, name == "service-warm")
	}
	r, err := runInProcess(ctx, specs, env.seconds, env.seed)
	if err != nil {
		return nil, err
	}
	r.details["peak_rss_mb_end"], err = peakRSSMiB(os.Getpid())
	return r, err
}
