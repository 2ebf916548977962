package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/distplan"
	"ifdb/internal/label"
	"ifdb/internal/txn"
	"ifdb/internal/wire"
)

const (
	laSchema = `CREATE TABLE facts (k BIGINT PRIMARY KEY, g TEXT, v BIGINT);
		CREATE TABLE facts_in (k BIGINT PRIMARY KEY, v BIGINT)`
	laInsert = `INSERT INTO facts VALUES ($1, $2, $3)`
	laAggQ   = `SELECT g, count(*), sum(v) FROM facts GROUP BY g`
	laStrQ   = `SELECT k, v FROM facts WHERE v < $1`
	laTopQ   = `SELECT k, v FROM facts ORDER BY v DESC LIMIT 100`
	laPointQ = `SELECT g, v FROM facts WHERE k = $1`
	// The write probe inserts into facts_in, so the queries it runs
	// between write batches keep their precomputed answers.
	laInsertIn  = `INSERT INTO facts_in VALUES ($1, $2)`
	laWrittenQ  = `SELECT count(*), sum(k) FROM facts_in`
	laBatches   = 10
	laBatchRows = 200
)

// laTopN is the top-K query's LIMIT.
const laTopN = 100

// laWarmOps is the warm-up length, run as part of setup.
const laWarmOps = 30

// laDefectRounds is how many top-K → GROUP BY pairs the traced run
// sends with no settle between them, for defect.stale_cancel_frac.
const laDefectRounds = 30

// settleMax bounds the wait between two queries.
const settleMax = time.Second

// analytics is a 2-shard IFC cluster holding two tenants' rows,
// interleaved; one Router (one connection per shard) reads as tenant 0.
type analytics struct {
	seed   int64
	ifc    bool
	nodes  []*node
	smap   *wire.ShardMap
	prins  [2]ifdb.Principal
	tags   [2]ifdb.Tag
	rows   []laRow
	gen    *analyticsGen
	router *client.Router
	// direct holds one labeled Conn per shard for the traced replay of
	// each statement's shard fragment.
	direct []*client.Conn
	want   laExpected
	// unsettled sends each query right after the last one, without
	// settle: only the traced run's stale-CANCEL demonstration sets it.
	unsettled bool
}

// laExpected is every query's answer for the visible rows, computed
// once so that checking an answer adds no think time between
// statements.
type laExpected struct {
	groups map[string][2]int64 // g -> count, sum(v)
	top    []laRow             // visible rows by v descending, first laTopN
	byV    []laRow             // visible rows by v ascending
	kSum   []int64             // kSum[i] = sum of byV[:i].k
}

func expect(vis []laRow) laExpected {
	e := laExpected{groups: map[string][2]int64{}}
	for _, r := range vis {
		a := e.groups[r.g]
		e.groups[r.g] = [2]int64{a[0] + 1, a[1] + r.v}
	}
	e.byV = append([]laRow(nil), vis...)
	sort.Slice(e.byV, func(i, j int) bool { return e.byV[i].v < e.byV[j].v })
	e.kSum = make([]int64, len(e.byV)+1)
	for i, r := range e.byV {
		e.kSum[i+1] = e.kSum[i] + r.k
	}
	for i := len(e.byV) - 1; i >= 0 && len(e.top) < laTopN; i-- {
		e.top = append(e.top, e.byV[i])
	}
	return e
}

func newAnalytics(seed int64, _ string, o opts) workload {
	return &analytics{seed: seed, ifc: o.ifc}
}

func (w *analytics) setup() error {
	nodes, smap, err := startShards(2, w.ifc, map[string]string{"facts": "k", "facts_in": "k"})
	if err != nil {
		return err
	}
	w.nodes, w.smap = nodes, smap
	w.rows = laData(w.seed)
	w.want = expect(w.visible())
	w.gen = newAnalyticsGen(w.seed)
	// Tag IDs are random per engine: mint the principals and tags on
	// shard 0 and restore them under the same IDs on the other shard.
	eng0 := nodes[0].db.Engine()
	for i := range w.prins {
		name := fmt.Sprintf("tenant%d", i)
		w.prins[i] = eng0.CreatePrincipal(name)
		if w.ifc {
			if w.tags[i], err = eng0.CreateTag(w.prins[i], name+"_secret"); err != nil {
				return err
			}
		}
		for _, n := range nodes[1:] {
			auth := n.db.Engine().Authority()
			auth.RestorePrincipal(w.prins[i], name)
			if w.ifc {
				if err := auth.RestoreTag(w.tags[i], w.prins[i], name+"_secret", nil); err != nil {
					return err
				}
			}
		}
	}
	for _, n := range nodes {
		if _, err := n.db.AdminSession().Exec(laSchema); err != nil {
			return err
		}
	}
	if err := w.load(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := w.openRouter(); err != nil {
		return err
	}
	tl := newTally()
	for i := 0; i < laWarmOps; i++ {
		w.step(w.gen.next(), tl, nil)
	}
	if tl.wrong != "" {
		return fmt.Errorf("warm-up: %s", tl.wrong)
	}
	return nil
}

// load inserts every row in-process, on its owning shard, stamped with
// its tenant's tag.
func (w *analytics) load() error {
	for sid, n := range w.nodes {
		for tenant := 0; tenant < 2; tenant++ {
			s := n.db.NewSession(w.prins[tenant])
			if w.ifc {
				if err := s.AddSecrecy(w.tags[tenant]); err != nil {
					return err
				}
			}
			if err := s.Begin(txn.SnapshotIsolation); err != nil {
				return err
			}
			for _, r := range w.rows {
				if int(r.k%2) != tenant || int(shardOf(w.smap, r.k)) != sid {
					continue
				}
				if _, err := s.Exec(laInsert, ifdb.Int(r.k), ifdb.Text(r.g), ifdb.Int(r.v)); err != nil {
					return err
				}
			}
			if err := s.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *analytics) openRouter() error {
	var addrs []string
	for _, n := range w.nodes {
		addrs = append(addrs, n.addr)
	}
	cfg := client.RouterConfig{Addrs: addrs, ShardMap: w.smap, PoolSize: 1, Principal: uint64(w.prins[0])}
	if w.ifc {
		cfg.Secrecy = []client.Tag{w.tags[0]}
	}
	r, err := client.OpenRouter(cfg)
	if err != nil {
		return err
	}
	w.router = r
	return nil
}

// visible is the rows tenant 0 may see: its own under IFC, all without.
func (w *analytics) visible() []laRow {
	if !w.ifc {
		return w.rows
	}
	var out []laRow
	for _, r := range w.rows {
		if r.k%2 == 0 {
			out = append(out, r)
		}
	}
	return out
}

func (w *analytics) window(d time.Duration, tr *tracer) *tally {
	tl := newTally()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		w.step(w.gen.next(), tl, tr)
	}
	return tl
}

var laClass = [...]string{laAgg: "agg", laStream: "stream", laTopK: "topk"}

// step runs one query through the Router, checks its answer, and
// settles. Errors are counted, never retried.
func (w *analytics) step(op analyticsOp, tl *tally, tr *tracer) {
	tl.begin(laClass[op.kind])
	tl.stmts++
	text, args := w.query(op)
	start := time.Now()
	rows, err := w.router.Query(text, args...)
	var got [][]client.Value
	if err == nil {
		for rows.Next() {
			if len(got) == 0 && op.kind == laStream {
				tl.observe("first_row", msSince(start))
			}
			got = append(got, append([]client.Value(nil), rows.Row()...))
		}
		err = rows.Close()
	}
	dur := time.Since(start)
	if !w.unsettled {
		w.settle()
	}
	if err != nil {
		tl.fail(err)
		return
	}
	ms := float64(dur.Nanoseconds()) / 1e6
	tl.succeed(laClass[op.kind], ms)
	tl.rowsOut += int64(len(got))
	tl.observe(laClass[op.kind], ms)
	if msg := w.verify(op, got); msg != "" {
		tl.mismatch(msg)
	}
	if tr != nil {
		id := tr.op()
		tr.rootSpan(id, "router."+laClass[op.kind], start, dur)
		if slowest, ok := w.replayFragments(id, op, text, args, tr); ok {
			tr.gateway(dur, slowest)
		}
	}
}

// settle waits, after a query, until every out-of-band CANCEL its
// fan-out sent has been applied on its shard. Closing a merged stream
// cancels the fan-out context, and a shard stream that has already
// gone back to the pool can still have its CANCEL sent; if that CANCEL
// lands while the connection's next statement runs, it kills that
// statement (defect.stale_cancel_frac measures how often). Applied
// before the next statement starts, it is cleared by it. settle first
// waits for the client's cancel watchers to end (each has sent its
// CANCEL by then), then for each shard's listener barrier.
func (w *analytics) settle() {
	deadline := time.Now().Add(settleMax)
	waitFor(deadline, func() bool { return cancelWatchers() == 0 })
	for _, n := range w.nodes {
		n.ln.barrier(deadline)
	}
}

// cancelWatchers counts the goroutines client.Conn runs to send a
// statement's out-of-band CANCEL when its context ends.
func cancelWatchers() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("client.(*Conn).watchCancel.func"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// staleCancel runs the round-robin for laDefectRounds cycles with no
// settle between queries, so each GROUP BY starts right after a top-K,
// and returns the fraction of GROUP BYs a stale CANCEL killed. It is a
// demonstration, not part of any window.
func (w *analytics) staleCancel() (float64, error) {
	tl := newTally()
	w.unsettled = true
	for i := 0; i < 3*laDefectRounds; i++ {
		w.step(w.gen.next(), tl, nil)
	}
	w.unsettled = false
	w.settle()
	if tl.other > 0 || tl.wrong != "" {
		return 0, fmt.Errorf("stale-cancel demonstration: %v %s", tl.firstErr, tl.wrong)
	}
	fmt.Printf("stale-cancel demonstration: %d of %d GROUP BYs canceled (%v)\n",
		tl.canceled, tl.op("agg").tried, tl.firstErr)
	return ratio(float64(tl.canceled), float64(tl.op("agg").tried)), nil
}

func (w *analytics) query(op analyticsOp) (string, []client.Value) {
	switch op.kind {
	case laAgg:
		return laAggQ, nil
	case laStream:
		return laStrQ, []client.Value{ifdb.Int(op.threshold)}
	default:
		return laTopQ, nil
	}
}

// verify compares a query's rows with the generator's data.
func (w *analytics) verify(op analyticsOp, got [][]client.Value) string {
	e := &w.want
	switch op.kind {
	case laAgg:
		if len(got) != len(e.groups) {
			return fmt.Sprintf("group by: %d groups, want %d", len(got), len(e.groups))
		}
		for _, row := range got {
			if a := e.groups[row[0].String()]; row[1].Int() != a[0] || row[2].Int() != a[1] {
				return fmt.Sprintf("group %v: count=%v sum=%v, want %d %d", row[0], row[1], row[2], a[0], a[1])
			}
		}
	case laStream:
		n := sort.Search(len(e.byV), func(i int) bool { return e.byV[i].v >= op.threshold })
		var ksum int64
		for _, row := range got {
			ksum += row[0].Int()
		}
		if len(got) != n || ksum != e.kSum[n] {
			return fmt.Sprintf("stream v<%d: %d rows (key sum %d), want %d (%d)", op.threshold, len(got), ksum, n, e.kSum[n])
		}
	case laTopK:
		if len(got) != len(e.top) {
			return fmt.Sprintf("top-k: %d rows, want %d", len(got), len(e.top))
		}
		for i, row := range got {
			if row[0].Int() != e.top[i].k || row[1].Int() != e.top[i].v {
				return fmt.Sprintf("top-k row %d: %v, want k=%d v=%d", i, row, e.top[i].k, e.top[i].v)
			}
		}
	}
	return ""
}

// replayFragments runs the statement's per-shard part directly on each
// shard's Conn, traced, and returns the slowest shard's time. A split
// statement runs its distplan fragment on each shard; any other keyless
// read runs unchanged on each shard (the Router's union).
func (w *analytics) replayFragments(id int64, op analyticsOp, text string, args []client.Value, tr *tracer) (time.Duration, bool) {
	frag := text
	if spec := distplan.Split(text, distplan.Options{}); spec != nil {
		frag = spec.Fragment
	}
	if w.direct == nil {
		for _, n := range w.nodes {
			c, err := client.DialConfig(client.Config{Addr: n.addr, Principal: uint64(w.prins[0])})
			if err != nil {
				return 0, false
			}
			if w.ifc {
				c.AddSecrecy(w.tags[0])
			}
			w.direct = append(w.direct, c)
		}
	}
	var slowest time.Duration
	for _, c := range w.direct {
		start := time.Now()
		rows, err := c.Query(frag, args...)
		if err != nil {
			return 0, false
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			return 0, false
		}
		dur := time.Since(start)
		tr.stmt(c, id, "fragment."+laClass[op.kind], start, dur)
		if dur > slowest {
			slowest = dur
		}
	}
	return slowest, true
}

// probe writes laBatches batches of laBatchRows rows to facts_in
// through the Router, running one round of the three queries before
// each batch, and verifies that exactly the acknowledged rows are
// visible. write_p50_ms is the median of the batches' p50s: a
// single-row insert on an otherwise idle machine is a ~30µs round trip
// whose latency shifts with scheduler wake-ups, and a median over
// spaced batches is steady where one batch is not. Every query's answer
// is checked as in the window.
func (w *analytics) probe(pt *tally, _ int) error {
	ins, err := w.router.Prepare(laInsertIn)
	if err != nil {
		return err
	}
	var n, ksum int64
	reads := newTally()
	runtime.GC() // time the writes, not a collection the run left pending
	for b := int64(0); b < laBatches; b++ {
		for q := 0; q < 3; q++ {
			w.step(w.gen.next(), reads, nil)
		}
		var batch samples
		for i := int64(0); i < laBatchRows; i++ {
			k := b*laBatchRows + i
			start := time.Now()
			if _, err := ins.Exec(ifdb.Int(k), ifdb.Int(k)); err != nil {
				return fmt.Errorf("insert into facts_in: %w", err)
			}
			batch = append(batch, msSince(start))
			n++
			ksum += k
		}
		pt.observe("write", batch.quantile(0.5))
	}
	if reads.wrong != "" || reads.failed() > 0 {
		return fmt.Errorf("probe query: %v %s", reads.firstErr, reads.wrong)
	}
	res, err := w.router.Exec(laWrittenQ)
	if err != nil {
		return fmt.Errorf("count written rows: %w", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != n || (n > 0 && res.Rows[0][1].Int() != ksum) {
		return fmt.Errorf("written rows: got %v, want count=%d key sum=%d", res.Rows, n, ksum)
	}
	return nil
}

// check has nothing left to verify: every query's answer was checked
// as it ran.
func (w *analytics) check() error { return nil }

func (w *analytics) layers(m metrics) error {
	db := w.nodes[0].db
	s := db.NewSession(w.prins[0])
	if w.ifc {
		_ = s.AddSecrecy(w.tags[0])
	}
	var keys []int64
	for _, r := range w.rows {
		if r.k%2 == 0 && shardOf(w.smap, r.k) == 0 {
			keys = append(keys, r.k)
		}
	}
	m["engine.inproc_point_read_us"] = inprocUs(s, laPointQ, 3000, func(i int) []ifdb.Value {
		return []ifdb.Value{ifdb.Int(keys[i%len(keys)])}
	})
	frontEnd(m, db.Engine().Catalog(), []string{laAggQ, laStrQ, laTopQ})
	m["label.flows_ns"] = flowsNs(db.Engine().Hierarchy(), label.New(w.tags[1]), label.New(w.tags[0]))
	m["pager.heap_bytes_per_row"] = 0 // in-memory shards: no heap files
	var err error
	m["defect.stale_cancel_frac"], err = w.staleCancel()
	return err
}

func (w *analytics) tupleBytes() float64 {
	var bytes, tuples float64
	for _, n := range w.nodes {
		st := n.db.Stats()
		bytes += float64(st.TupleBytes)
		tuples += float64(st.Tuples)
	}
	return ratio(bytes, tuples)
}

func (w *analytics) close() {
	for _, c := range w.direct {
		c.Close()
	}
	if w.router != nil {
		w.router.Close()
	}
	closeNodes(w.nodes)
}
