package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie above a reported tail
// percentile for the percentile to count as supported by the sample.
const tailMinBeyond = 10

// tail is the highest percentile of a sample that still has at least
// tailMinBeyond samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
	// Supported is false when the sample is too small for any percentile
	// to have tailMinBeyond samples beyond it; Value is then the maximum.
	Supported bool `json:"supported"`
}

// tailOf applies the "at least ten samples beyond" rule: with n sorted
// samples it reports the (n-10)th smallest, the percentile 100·(n-10)/n.
// A sample of ten or fewer supports no such percentile; tailOf then
// reports the maximum, marked unsupported.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailMinBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	rank := n - tailMinBeyond // 1-based rank of the reported sample
	return tail{
		Value:      s[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		Samples:    n,
		Beyond:     n - rank,
		Supported:  true,
	}
}

// tally counts attempted operations and the ones that failed: campaign
// errors, non-2xx responses and outcome counts that differ from the
// reference.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

// ok records one successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records one failed operation with its reason.
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	// Keep the report bounded when every operation fails the same way.
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check records one operation that failed iff err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// share is failed ÷ attempted; 0 before anything was attempted.
func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// schedule draws everything a run varies with its seed from one
// generator: the campaign order of each pass (one permutation per pass)
// and the phase of each campaign's polling. The same seed always gives the
// same sequence.
type schedule struct{ rng *rand.Rand }

func newSchedule(seed int64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed))}
}

// order is the submission order of the next pass over n campaigns.
func (s *schedule) order(n int) []int { return s.rng.Perm(n) }

// pollPhase is the delay before a campaign's first poll, uniform in
// [0, interval). A random phase keeps the polling grid from snapping
// campaign times to multiples of the interval.
func (s *schedule) pollPhase(interval time.Duration) time.Duration {
	return time.Duration(s.rng.Int63n(int64(interval)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
