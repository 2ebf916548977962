package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/txn"
)

const (
	tpRead1   = `SELECT v FROM kv WHERE k = $1`
	tpUpdate1 = `UPDATE kv SET v = $2 WHERE k = $1`
	tpInsert1 = `INSERT INTO kv VALUES ($1, $2, $3)`
	tpScan    = `SELECT k, v FROM kv WHERE k < $1`
	tpAgg     = `SELECT count(*), sum(v) FROM kv WHERE k < $1`
	tpTopK    = `SELECT k, v FROM kv WHERE k < $1 ORDER BY v DESC, k LIMIT 100`
)

// tpScanKeys and tpProbeKeys bound the timed probes' scans and their
// aggregates and top-Ks to the keys below them, so they repeat cheaply.
const (
	tpScanKeys  = 2_000
	tpProbeKeys = 20_000
)

// tpWarmOps is each tenant's warm-up length, run as part of setup.
const tpWarmOps = 300

// tenantPoint is two tenants, each confined by its own secrecy tag and
// served by its own Router (pool 1), on one in-memory IFC node.
type tenantPoint struct {
	seed    int64
	ifc     bool
	node    *node
	tenants [2]*tpTenant
}

type tpTenant struct {
	id     int
	prin   ifdb.Principal
	tag    ifdb.Tag
	gen    *tenantGen
	router *client.Router
	read   *client.RouterStmt
	update *client.RouterStmt
	insert *client.RouterStmt
	// direct is the traced path: the same statements on a plain Conn,
	// opened on first use.
	direct *tpDirect
	// want is the value this tenant last wrote to each of its keys.
	// Only the tenant's goroutine touches it.
	want map[int64]int64
}

type tpDirect struct {
	conn                 *client.Conn
	read, update, insert *client.Stmt
}

func newTenantPoint(seed int64, _ string, o opts) workload {
	return &tenantPoint{seed: seed, ifc: o.ifc}
}

func (w *tenantPoint) setup() error {
	n, err := startNode(ifdb.Config{IFC: w.ifc}, false)
	if err != nil {
		return err
	}
	w.node = n
	db := n.db
	if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT, pad TEXT)`); err != nil {
		return err
	}
	for i := range w.tenants {
		t := &tpTenant{id: i, gen: newTenantGen(w.seed, i), want: map[int64]int64{}}
		w.tenants[i] = t // close releases what set-up opened, even on failure
		t.prin = db.CreatePrincipal(fmt.Sprintf("tenant%d", i))
		if w.ifc {
			if t.tag, err = db.CreateTag(t.prin, fmt.Sprintf("tenant%d_secret", i)); err != nil {
				return err
			}
		}
		if err := w.load(t); err != nil {
			return err
		}
		cfg := client.RouterConfig{Addrs: []string{n.addr}, Principal: uint64(t.prin), PoolSize: 1}
		if w.ifc {
			cfg.Secrecy = []client.Tag{t.tag}
		}
		if t.router, err = client.OpenRouter(cfg); err != nil {
			return err
		}
		if t.read, err = t.router.Prepare(tpRead1); err != nil {
			return err
		}
		if t.update, err = t.router.Prepare(tpUpdate1); err != nil {
			return err
		}
		if t.insert, err = t.router.Prepare(tpInsert1); err != nil {
			return err
		}
	}
	warm := w.run(func(_ *tpTenant, tl *tally, _ time.Time) bool { return tl.attempted < tpWarmOps }, nil)
	if warm.failed() > 0 || warm.wrong != "" {
		return fmt.Errorf("warm-up: %d failed (%v) %s", warm.failed(), warm.firstErr, warm.wrong)
	}
	return nil
}

// load inserts the tenant's rows in-process, stamped with its tag.
func (w *tenantPoint) load(t *tpTenant) error {
	s := w.node.db.NewSession(t.prin)
	if w.ifc {
		if err := s.AddSecrecy(t.tag); err != nil {
			return err
		}
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		return err
	}
	for i := int64(0); i < tpRowsPerTenant; i++ {
		k := 2*i + int64(t.id)
		v := tpInitial(w.seed, k)
		if _, err := s.Exec(tpInsert1, ifdb.Int(k), ifdb.Int(v), ifdb.Text(tpPad(k))); err != nil {
			return fmt.Errorf("load kv: %w", err)
		}
		t.want[k] = v
	}
	return s.Commit()
}

func tpPad(k int64) string { return fmt.Sprintf("row-%012d", k) }

func (w *tenantPoint) window(d time.Duration, tr *tracer) *tally {
	deadline := time.Now().Add(d)
	return w.run(func(_ *tpTenant, _ *tally, now time.Time) bool { return now.Before(deadline) }, tr)
}

// run drives both tenants, one goroutine each, while more says so.
func (w *tenantPoint) run(more func(*tpTenant, *tally, time.Time) bool, tr *tracer) *tally {
	var wg sync.WaitGroup
	tallies := [2]*tally{newTally(), newTally()}
	for i, t := range w.tenants {
		wg.Add(1)
		go func(t *tpTenant, tl *tally) {
			defer wg.Done()
			for more(t, tl, time.Now()) {
				w.step(t, t.gen.next(), tl, tr)
			}
		}(t, tallies[i])
	}
	wg.Wait()
	tallies[0].merge(tallies[1])
	return tallies[0]
}

// step runs one statement, retrying a serialization failure until it
// commits; every other error is counted and not retried.
func (w *tenantPoint) step(t *tpTenant, op tenantOp, tl *tally, tr *tracer) {
	class := "write"
	switch op.kind {
	case tpRead:
		class = "read"
	case tpCrossRead:
		class = "xread"
	}
	tl.begin(class)
	start := time.Now()
	var res *client.Result
	var err error
	for {
		res, err = w.exec(t, op, tr)
		tl.stmts++
		if !isSerialization(err) {
			break
		}
		tl.retried++
	}
	ms := msSince(start)
	if err != nil {
		tl.fail(err)
		return
	}
	tl.succeed(class, ms)
	tl.rowsOut += int64(len(res.Rows))
	switch op.kind {
	case tpRead:
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != t.want[op.k] {
			tl.mismatch(fmt.Sprintf("tenant %d read k=%d: got %v, want %d", t.id, op.k, res.Rows, t.want[op.k]))
		}
	case tpCrossRead:
		// Confinement hides the other tenant's row; without IFC it shows.
		want := 1
		if w.ifc {
			want = 0
		}
		if len(res.Rows) != want {
			tl.mismatch(fmt.Sprintf("tenant %d cross read k=%d: %d rows, want %d", t.id, op.k, len(res.Rows), want))
		}
	default:
		tl.observe("write", ms)
		if res.Affected != 1 {
			tl.mismatch(fmt.Sprintf("tenant %d write k=%d: affected %d", t.id, op.k, res.Affected))
		}
		t.want[op.k] = op.v
	}
}

// exec runs op through the tenant's Router. Traced, it runs op on the
// direct Conn with the server's phase split, and pairs each read and
// update with the same statement through the Router (idempotent: same
// key, same value), alternating which path goes first.
func (w *tenantPoint) exec(t *tpTenant, op tenantOp, tr *tracer) (*client.Result, error) {
	if tr == nil {
		return w.viaRouter(t, op)
	}
	d, err := w.direct(t)
	if err != nil {
		return nil, err
	}
	id := tr.op()
	class := "point_read"
	switch op.kind {
	case tpUpdate:
		class = "update"
	case tpInsert:
		class = "insert"
	}
	var rdur time.Duration
	var rerr error
	paired := op.kind != tpInsert
	replay := func() {
		rstart := time.Now()
		_, rerr = w.viaRouter(t, op)
		rdur = time.Since(rstart)
		tr.rootSpan(id, "router."+class, rstart, rdur)
	}
	if paired && id%2 == 0 {
		replay()
	}
	start := time.Now()
	var res *client.Result
	switch op.kind {
	case tpRead, tpCrossRead:
		res, err = d.read.Exec(ifdb.Int(op.k))
	case tpUpdate:
		res, err = d.update.Exec(ifdb.Int(op.k), ifdb.Int(op.v))
	default:
		res, err = d.insert.Exec(ifdb.Int(op.k), ifdb.Int(op.v), ifdb.Text(tpPad(op.k)))
	}
	direct := time.Since(start)
	tr.stmt(d.conn, id, class, start, direct)
	if paired && id%2 == 1 && err == nil {
		replay()
	}
	if paired && err == nil && rerr == nil {
		tr.routerPair(rdur, direct)
	}
	return res, err
}

func (w *tenantPoint) viaRouter(t *tpTenant, op tenantOp) (*client.Result, error) {
	switch op.kind {
	case tpRead, tpCrossRead:
		return t.read.Exec(ifdb.Int(op.k))
	case tpUpdate:
		return t.update.Exec(ifdb.Int(op.k), ifdb.Int(op.v))
	default:
		return t.insert.Exec(ifdb.Int(op.k), ifdb.Int(op.v), ifdb.Text(tpPad(op.k)))
	}
}

func (w *tenantPoint) direct(t *tpTenant) (*tpDirect, error) {
	if t.direct != nil {
		return t.direct, nil
	}
	c, err := client.DialConfig(client.Config{Addr: w.node.addr, Principal: uint64(t.prin)})
	if err != nil {
		return nil, err
	}
	if w.ifc {
		c.AddSecrecy(t.tag)
	}
	d := &tpDirect{conn: c}
	for _, p := range []struct {
		dst  **client.Stmt
		text string
	}{{&d.read, tpRead1}, {&d.update, tpUpdate1}, {&d.insert, tpInsert1}} {
		if *p.dst, err = c.Prepare(p.text); err != nil {
			c.Close()
			return nil, err
		}
	}
	t.direct = d
	return d, nil
}

// visible is what tenant t's queries may see: its own rows under IFC,
// both tenants' rows without it.
func (w *tenantPoint) visible(t *tpTenant) map[int64]int64 {
	if w.ifc {
		return t.want
	}
	all := map[int64]int64{}
	for _, o := range w.tenants {
		for k, v := range o.want {
			all[k] = v
		}
	}
	return all
}

// probe times checked queries on tenant 0 on the state set-up left:
// the dataset is the same on every run, so the timings do not depend on
// how much the window wrote. Each round streams the keys below
// tpScanKeys five times (first_row, a short and noisy latency) and
// aggregates and ranks the keys below tpProbeKeys once. The first
// probeWarm rounds are checked but not timed.
func (w *tenantPoint) probe(pt *tally, reps int) error {
	t := w.tenants[0]
	for r := -probeWarm; r < reps; r++ {
		timed := pt
		if r < 0 {
			timed = nil
		}
		runtime.GC() // time the queries, not a collection set-up left pending
		for i := 0; i < 5; i++ {
			if err := w.checkScan(t, tpScanKeys, timed); err != nil {
				return err
			}
		}
		if err := w.checkAgg(t, tpProbeKeys, timed); err != nil {
			return err
		}
		if err := w.checkTopK(t, tpProbeKeys, timed); err != nil {
			return err
		}
	}
	return nil
}

// check reads every tenant's visible rows back through its Router and
// compares them, their count and sum, and the top 100 by value with the
// generator's record.
func (w *tenantPoint) check() error {
	for _, t := range w.tenants {
		for _, f := range []func(*tpTenant, int64, *tally) error{w.checkScan, w.checkAgg, w.checkTopK} {
			if err := f(t, math.MaxInt64, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// wantBelow is tenant t's visible rows with keys below `below`.
func (w *tenantPoint) wantBelow(t *tpTenant, below int64) map[int64]int64 {
	want := map[int64]int64{}
	for k, v := range w.visible(t) {
		if k < below {
			want[k] = v
		}
	}
	return want
}

// The check queries below compare tenant t's rows with keys below
// `below` with the generator's record and, when pt is not nil, record
// their timings.

func (w *tenantPoint) checkScan(t *tpTenant, below int64, pt *tally) error {
	want := w.wantBelow(t, below)
	start := time.Now()
	rows, err := t.router.Query(tpScan, ifdb.Int(below))
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	seen := 0
	for rows.Next() {
		if seen == 0 && pt != nil {
			pt.observe("first_row", msSince(start))
		}
		row := rows.Row()
		k, v := row[0].Int(), row[1].Int()
		if wv, ok := want[k]; !ok || wv != v {
			rows.Close()
			return fmt.Errorf("tenant %d scan: k=%d v=%d, want present=%v v=%d", t.id, k, v, ok, wv)
		}
		seen++
	}
	if err := rows.Close(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if seen != len(want) {
		return fmt.Errorf("tenant %d scan: %d rows, want %d", t.id, seen, len(want))
	}
	return nil
}

func (w *tenantPoint) checkAgg(t *tpTenant, below int64, pt *tally) error {
	want := w.wantBelow(t, below)
	var sum int64
	for _, v := range want {
		sum += v
	}
	start := time.Now()
	res, err := t.router.Exec(tpAgg, ifdb.Int(below))
	if err != nil {
		return fmt.Errorf("agg: %w", err)
	}
	if pt != nil {
		pt.observe("agg", msSince(start))
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(len(want)) || res.Rows[0][1].Int() != sum {
		return fmt.Errorf("tenant %d agg: got %v, want count=%d sum=%d", t.id, res.Rows, len(want), sum)
	}
	return nil
}

func (w *tenantPoint) checkTopK(t *tpTenant, below int64, pt *tally) error {
	type kv struct{ k, v int64 }
	var top []kv
	for k, v := range w.wantBelow(t, below) {
		top = append(top, kv{k, v})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].v != top[j].v {
			return top[i].v > top[j].v
		}
		return top[i].k < top[j].k
	})
	if len(top) > 100 {
		top = top[:100]
	}
	start := time.Now()
	res, err := t.router.Exec(tpTopK, ifdb.Int(below))
	if err != nil {
		return fmt.Errorf("top-k: %w", err)
	}
	if pt != nil {
		pt.observe("topk", msSince(start))
	}
	if len(res.Rows) != len(top) {
		return fmt.Errorf("tenant %d top-k: %d rows, want %d", t.id, len(res.Rows), len(top))
	}
	for i, row := range res.Rows {
		if row[0].Int() != top[i].k || row[1].Int() != top[i].v {
			return fmt.Errorf("tenant %d top-k row %d: got %v, want %v", t.id, i, row, top[i])
		}
	}
	return nil
}

func (w *tenantPoint) layers(m metrics) error {
	eng := w.node.db.Engine()
	t := w.tenants[0]
	s := w.node.db.NewSession(t.prin)
	if w.ifc {
		_ = s.AddSecrecy(t.tag)
	}
	m["engine.inproc_point_read_us"] = inprocUs(s, tpRead1, 5000, func(i int) []ifdb.Value {
		return []ifdb.Value{ifdb.Int(2 * int64(i%tpRowsPerTenant))}
	})
	frontEnd(m, eng.Catalog(), []string{tpRead1, tpUpdate1, tpInsert1})
	l := ifdb.NewLabel(t.tag)
	m["label.flows_ns"] = flowsNs(eng.Hierarchy(), l, l)
	m["pager.heap_bytes_per_row"] = 0 // in-memory node: no heap files
	m["defect.stale_cancel_frac"] = 0
	return nil
}

func (w *tenantPoint) tupleBytes() float64 {
	st := w.node.db.Stats()
	return ratio(float64(st.TupleBytes), float64(st.Tuples))
}

func (w *tenantPoint) close() {
	for _, t := range w.tenants {
		if t == nil {
			continue
		}
		if t.direct != nil {
			t.direct.conn.Close()
		}
		if t.router != nil {
			t.router.Close()
		}
	}
	if w.node != nil {
		w.node.close()
	}
}
