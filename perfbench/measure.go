package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ifdb/internal/obs"
)

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	// Linear interpolation between the closest ranks.
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 { return samples(v).quantile(0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// isSerialization reports whether err is a first-committer-wins
// serialization failure, the one error class the generator retries.
func isSerialization(err error) bool {
	return err != nil && strings.Contains(err.Error(), "serialization failure")
}

// opClass is one kind of operation in a window: how many were
// attempted, and the latencies (ms) and completion times (seconds into
// the window) of those that succeeded.
type opClass struct {
	tried int64
	lat   samples
	at    []float64
}

// tally is one client goroutine's record of a measured window. Each
// goroutine owns its tally; windows merge them after the goroutines end.
type tally struct {
	t0        time.Time // when the window began
	ops       map[string]*opClass
	lat       map[string]samples // other timed classes (ms): write statements, first rows, probes
	attempted int64
	committed int64 // successful ops
	retried   int64 // serialization failures retried to success or failure
	canceled  int64
	other     int64
	rowsOut   int64 // rows returned to the client
	stmts     int64 // statements sent over the wire
	walBytes  int64 // write-ahead log growth over the window
	firstErr  error // first non-serialization error, for the log
	wrong     string
}

func newTally() *tally {
	return &tally{t0: time.Now(), ops: map[string]*opClass{}, lat: map[string]samples{}}
}

func (t *tally) op(class string) *opClass {
	c := t.ops[class]
	if c == nil {
		c = &opClass{}
		t.ops[class] = c
	}
	return c
}

// begin counts an attempted operation of a class.
func (t *tally) begin(class string) {
	t.attempted++
	t.op(class).tried++
}

// succeed records a successful operation's latency.
func (t *tally) succeed(class string, ms float64) {
	t.committed++
	c := t.op(class)
	c.lat = append(c.lat, ms)
	c.at = append(c.at, time.Since(t.t0).Seconds())
}

func (t *tally) observe(class string, ms float64) {
	t.lat[class] = append(t.lat[class], ms)
}

// sliced cuts a window of length d into n equal parts by completion
// time and returns each part's rate of successful operations (per
// second) and, for each quantile in qs, each part's quantile of their
// latency (ms). An operation that ends after d counts in the last part.
func (t *tally) sliced(d time.Duration, n int, qs ...float64) (rates []float64, lat [][]float64) {
	part := d.Seconds() / float64(n)
	parts := make([]samples, n)
	for _, c := range t.ops {
		for i, v := range c.lat {
			p := min(int(c.at[i]/part), n-1)
			parts[p] = append(parts[p], v)
		}
	}
	for _, s := range parts {
		rates = append(rates, float64(len(s))/part)
	}
	for _, q := range qs {
		var vals []float64
		for _, s := range parts {
			if len(s) > 0 {
				vals = append(vals, s.quantile(q))
			}
		}
		lat = append(lat, vals)
	}
	return rates, lat
}

// opMean is the mean successful-operation latency (ms).
func (t *tally) opMean() float64 {
	var sum float64
	var n int
	for _, c := range t.ops {
		for _, v := range c.lat {
			sum += v
		}
		n += len(c.lat)
	}
	return ratio(sum, float64(n))
}

// okSamples is the number of latency samples behind the op percentiles.
func (t *tally) okSamples() int {
	n := 0
	for _, c := range t.ops {
		n += len(c.lat)
	}
	return n
}

// fail counts a failed operation in the breakdown: canceled statements
// apart from every other error.
func (t *tally) fail(err error) {
	if strings.Contains(err.Error(), "statement canceled") {
		t.canceled++
	} else {
		t.other++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// mismatch records the first wrong answer; any wrong answer fails the run.
func (t *tally) mismatch(msg string) {
	if t.wrong == "" {
		t.wrong = msg
	}
}

func (t *tally) merge(o *tally) {
	for k, c := range o.ops {
		mine := t.op(k)
		mine.tried += c.tried
		mine.lat = append(mine.lat, c.lat...)
		mine.at = append(mine.at, c.at...)
	}
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.attempted += o.attempted
	t.committed += o.committed
	t.retried += o.retried
	t.canceled += o.canceled
	t.other += o.other
	t.rowsOut += o.rowsOut
	t.stmts += o.stmts
	t.walBytes += o.walBytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	if t.wrong == "" {
		t.wrong = o.wrong
	}
}

func (t *tally) failed() int64 { return t.canceled + t.other }

// probe is a process-wide reading of every counter the per-layer
// metrics difference: the obs registry (with histogram buckets), the
// Go runtime, and /proc/self/io.
type probe struct {
	at       time.Time
	snap     obs.Snapshot
	buckets  map[string][]bucket
	mallocs  uint64
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	syscalls int64
}

// bucket is one cumulative Prometheus histogram bucket.
type bucket struct {
	le  float64
	cum int64
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []rtm.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtm.Read(cpu)
	return probe{
		at:       time.Now(),
		snap:     obs.Default.Snapshot(),
		buckets:  histBuckets(),
		mallocs:  ms.Mallocs,
		alloc:    ms.TotalAlloc,
		gcCPU:    cpuSeconds(cpu[0]),
		totalCPU: cpuSeconds(cpu[1]),
		syscalls: procSyscalls(),
	}
}

func cpuSeconds(s rtm.Sample) float64 {
	if s.Value.Kind() != rtm.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// histBuckets reads every histogram's cumulative buckets from the
// registry's Prometheus exposition (the Snapshot type carries only
// point-in-time quantiles, which cannot be differenced).
func histBuckets() map[string][]bucket {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string][]bucket{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "_bucket{le=\"")
		if i < 0 {
			continue
		}
		name := line[:i]
		rest := line[i+len("_bucket{le=\""):]
		j := strings.Index(rest, "\"}")
		if j < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:j] != "+Inf" {
			v, err := strconv.ParseFloat(rest[:j], 64)
			if err != nil {
				continue
			}
			le = v
		}
		cum, err := strconv.ParseInt(strings.TrimSpace(rest[j+2:]), 10, 64)
		if err != nil {
			continue
		}
		out[name] = append(out[name], bucket{le, cum})
	}
	return out
}

// procSyscalls returns read plus write system calls from /proc/self/io
// (0 where the file is absent).
func procSyscalls() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n int64
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		x, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err == nil {
			n += x
		}
	}
	return n
}

// delta is the difference between two probes.
type delta struct {
	secs     float64
	snap     obs.Snapshot
	prev     map[string][]bucket
	cur      map[string][]bucket
	mallocs  float64
	alloc    float64
	gcCPU    float64
	totalCPU float64
	syscalls float64
}

func (p probe) sub(prev probe) delta {
	return delta{
		secs:     p.at.Sub(prev.at).Seconds(),
		snap:     p.snap.Sub(prev.snap),
		prev:     prev.buckets,
		cur:      p.buckets,
		mallocs:  float64(p.mallocs - prev.mallocs),
		alloc:    float64(p.alloc - prev.alloc),
		gcCPU:    p.gcCPU - prev.gcCPU,
		totalCPU: p.totalCPU - prev.totalCPU,
		syscalls: float64(p.syscalls - prev.syscalls),
	}
}

func (d delta) counter(name string) float64 { return float64(d.snap.Counters[name]) }

// histCount and histSum are a histogram's observation count and sum
// (in its recorded unit: nanoseconds for durations) over the interval.
func (d delta) histCount(name string) float64 { return float64(d.snap.Hists[name].Count) }
func (d delta) histSum(name string) float64   { return float64(d.snap.Hists[name].Sum) }

// histQuantile estimates quantile q of the observations made between
// the two probes, interpolating linearly inside the doubling bucket
// that holds it (exposition units: seconds for duration histograms).
// 0 when nothing was observed.
func (d delta) histQuantile(name string, q float64) float64 {
	var diffs []bucket
	for _, b := range d.cur[name] {
		diffs = append(diffs, bucket{b.le, b.cum - cumAt(d.prev[name], b.le)})
	}
	if len(diffs) == 0 || diffs[len(diffs)-1].cum <= 0 {
		return 0
	}
	target := q * float64(diffs[len(diffs)-1].cum)
	var lowCum int64
	lastLe := 0.0
	for _, b := range diffs {
		if float64(b.cum) >= target && b.cum > lowCum {
			if math.IsInf(b.le, 1) {
				return lastLe
			}
			lo := b.le / 2 // buckets double, so the lower bound is half
			frac := (target - float64(lowCum)) / float64(b.cum-lowCum)
			return lo + (b.le-lo)*frac
		}
		lowCum = b.cum
		if !math.IsInf(b.le, 1) {
			lastLe = b.le
		}
	}
	return lastLe
}

// cumAt is the cumulative count at bound le in a sparse exposition:
// an omitted bucket was empty, so it inherits the last bound below it.
func cumAt(bs []bucket, le float64) int64 {
	var v int64
	for _, b := range bs {
		if b.le <= le {
			v = b.cum
		}
	}
	return v
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
