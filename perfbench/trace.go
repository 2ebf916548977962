package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ifdb/client"
)

// span is one timed interval of the traced window. Spans are recorded
// from the benchmark's side of each module boundary: the client call
// is the parent, and the server's parse/admit/exec/stream phases from
// Conn.Stats() are its children. The server reports durations, not
// start times, so the children are placed from the parent's start:
// parse, then admit, then exec and stream, which overlap (a streamed
// statement executes while its rows are written) and end together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced window began
	End    int64  `json:"end_ns"`
}

// phaseSum accumulates one statement class's server-side split.
// server is parse + admit + the longer of exec and stream: the part
// of the call the server's phases cover.
type phaseSum struct {
	n                                        int
	call, parse, admit, exec, stream, server float64 // ns
}

// maxSpans caps the spans kept for the span file (~100 bytes each
// written); the self-time table and the metrics cover every span.
const maxSpans = 50_000

// tracer keeps the traced window's spans in memory, the self-time table,
// and the per-class sums the per-layer metrics are computed from. Safe
// for concurrent use.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	self    map[string]*selfRow
	nextOp  int64
	phases  map[string]*phaseSum
	// routerSelf pairs a Router call with the same statement on a
	// direct Conn: the Router's own cost (µs).
	routerSelf samples
	// shardMs is the slowest shard fragment of a split read, run
	// directly on each shard; gatewayMs is the Router call minus it.
	shardMs, gatewayMs samples
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]*selfRow{}, phases: map[string]*phaseSum{}}
}

// op allocates an operation id; every span of one operation carries it.
func (tr *tracer) op() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextOp++
	return tr.nextOp
}

// add records a span whose own time, outside its children, is self. It
// returns the span's id, or -1 once maxSpans are kept.
func (tr *tracer) add(op int64, parent int, name string, start time.Time, dur, self time.Duration) int {
	r := tr.self[name]
	if r == nil {
		r = &selfRow{Name: name}
		tr.self[name] = r
	}
	r.Count++
	r.TotUs += float64(self) / 1e3
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	s := int64(start.Sub(tr.t0))
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Op: op, Name: name, Start: s, End: s + int64(dur)})
	return len(tr.spans) - 1
}

// rootSpan records a span with no server split (a Router call).
func (tr *tracer) rootSpan(op int64, name string, start time.Time, dur time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.add(op, -1, name, start, dur, dur)
}

// stmt records one statement on a direct Conn: the client span plus
// the server phases fetched with Conn.Stats() right after it. class
// keys the per-class exec sums (point_read, update, insert, begin,
// commit, scan, ...).
func (tr *tracer) stmt(c *client.Conn, op int64, class string, start time.Time, dur time.Duration) {
	st, err := c.Stats()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err != nil {
		tr.add(op, -1, "client."+class, start, dur, dur)
		return
	}
	parse, admit := time.Duration(st.ParseNs), time.Duration(st.PlanNs)
	exec, stream := time.Duration(st.ExecNs), time.Duration(st.StreamNs)
	run := max(exec, stream)
	// The children's union is parse + admit + run: exec and stream
	// overlap and end together.
	parent := tr.add(op, -1, "client."+class, start, dur, dur-parse-admit-run)
	at := start
	tr.add(op, parent, "server.parse", at, parse, parse)
	at = at.Add(parse)
	tr.add(op, parent, "server.admit", at, admit, admit)
	at = at.Add(admit)
	tr.add(op, parent, "server.exec", at, exec, exec)
	tr.add(op, parent, "server.stream", at.Add(run-stream), stream, stream)
	p := tr.phases[class]
	if p == nil {
		p = &phaseSum{}
		tr.phases[class] = p
	}
	p.n++
	p.call += float64(dur)
	p.parse += float64(parse)
	p.admit += float64(admit)
	p.exec += float64(exec)
	p.stream += float64(stream)
	p.server += float64(parse + admit + run)
}

func (tr *tracer) routerPair(routerDur, directDur time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.routerSelf = append(tr.routerSelf, float64(routerDur-directDur)/1e3)
}

func (tr *tracer) gateway(routerDur, slowestShard time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.shardMs = append(tr.shardMs, float64(slowestShard)/1e6)
	tr.gatewayMs = append(tr.gatewayMs, float64(routerDur-slowestShard)/1e6)
}

// metrics fills the per-layer timings of the traced window.
func (tr *tracer) metrics(m metrics) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all phaseSum
	for _, p := range tr.phases {
		all.n += p.n
		all.call += p.call
		all.parse += p.parse
		all.admit += p.admit
		all.exec += p.exec
		all.stream += p.stream
		all.server += p.server
	}
	n := float64(all.n)
	m["client.self_us"] = ratio(all.call-all.server, n) / 1e3
	m["wire.admit_us"] = ratio(all.admit, n) / 1e3
	m["wire.stream_us"] = ratio(all.stream, n) / 1e3
	for _, class := range []string{"point_read", "update", "insert", "begin", "commit"} {
		v := 0.0
		if p := tr.phases[class]; p != nil {
			v = ratio(p.exec, float64(p.n)) / 1e3
		}
		m["engine.exec_us."+class] = v
	}
	m["client.router_self_us"] = tr.routerSelf.mean()
	m["distplan.shard_ms"] = tr.shardMs.mean()
	m["distplan.gateway_self_ms"] = tr.gatewayMs.mean()
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfUs float64 `json:"self_us_mean"`
	TotUs  float64 `json:"self_us_total"`
}

// selfTimes is the self-time table: each span name's duration minus
// the part its children cover, summed and averaged by name.
func (tr *tracer) selfTimes() []selfRow {
	rows := make([]selfRow, 0, len(tr.self))
	for _, r := range tr.self {
		row := *r
		row.SelfUs = row.TotUs / float64(row.Count)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotUs > rows[j].TotUs })
	return rows
}

func (tr *tracer) table(w io.Writer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(w, "%-22s %8s %14s %14s\n", "span", "count", "self_us_mean", "self_us_total")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(w, "%-22s %8d %14.2f %14.0f\n", r.Name, r.Count, r.SelfUs, r.TotUs)
	}
}

// write saves the spans and the self-time table under the build
// directory and returns the file's path.
func (tr *tracer) write(workload string, seed int64) (string, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	dir := filepath.Join(base, "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []span    `json:"spans"`
		Dropped  int       `json:"spans_dropped"`
		SelfTime []selfRow `json:"self_time"`
	}{workload, seed, tr.spans, tr.dropped, tr.selfTimes()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
