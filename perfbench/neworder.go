package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/txn"
)

// The paper's Fig. 6 DBT-2 New-Order over a durable node: group
// commit, and the big tables on disk behind 64-page buffer pools.
const noSchema = `
CREATE TABLE warehouse (w_id BIGINT PRIMARY KEY, w_name TEXT, w_tax DOUBLE PRECISION, w_ytd DOUBLE PRECISION);
CREATE TABLE district (d_w_id BIGINT, d_id BIGINT, d_tax DOUBLE PRECISION, d_ytd DOUBLE PRECISION,
	d_next_o_id BIGINT, PRIMARY KEY (d_w_id, d_id));
CREATE TABLE customer (c_w_id BIGINT, c_d_id BIGINT, c_id BIGINT, c_name TEXT, c_balance DOUBLE PRECISION,
	PRIMARY KEY (c_w_id, c_d_id, c_id)) USING DISK;
CREATE TABLE item (i_id BIGINT PRIMARY KEY, i_name TEXT, i_price DOUBLE PRECISION);
CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT,
	PRIMARY KEY (s_w_id, s_i_id)) USING DISK;
CREATE TABLE orders (o_w_id BIGINT, o_d_id BIGINT, o_id BIGINT, o_c_id BIGINT, o_entry_d BIGINT, o_ol_cnt BIGINT,
	PRIMARY KEY (o_w_id, o_d_id, o_id)) USING DISK;
CREATE TABLE new_order (no_w_id BIGINT, no_d_id BIGINT, no_o_id BIGINT,
	PRIMARY KEY (no_w_id, no_d_id, no_o_id)) USING DISK;
CREATE TABLE order_line (ol_w_id BIGINT, ol_d_id BIGINT, ol_o_id BIGINT, ol_number BIGINT,
	ol_i_id BIGINT, ol_quantity BIGINT, ol_amount DOUBLE PRECISION) USING DISK;
CREATE INDEX order_line_pk ON order_line (ol_w_id, ol_d_id, ol_o_id, ol_number);
`

const (
	noSelWarehouse = `SELECT w_tax FROM warehouse WHERE w_id = $1`
	noSelDistrict  = `SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`
	noUpdDistrict  = `UPDATE district SET d_next_o_id = $3 WHERE d_w_id = $1 AND d_id = $2`
	noSelCustomer  = `SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`
	noInsOrder     = `INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)`
	noInsNewOrder  = `INSERT INTO new_order VALUES ($1, $2, $3)`
	noSelItem      = `SELECT i_price FROM item WHERE i_id = $1`
	noSelStock     = `SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = $1 AND s_i_id = $2`
	noUpdStock     = `UPDATE stock SET s_quantity = $3, s_ytd = $4, s_order_cnt = $5 WHERE s_w_id = $1 AND s_i_id = $2`
	noInsLine      = `INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)`

	noChkDistrict = `SELECT d_w_id, d_id, d_next_o_id FROM district`
	noChkOrders   = `SELECT o_w_id, o_d_id, max(o_id), count(*), sum(o_ol_cnt) FROM orders GROUP BY o_w_id, o_d_id`
	noChkLines    = `SELECT count(*) FROM order_line`
	noChkTopStock = `SELECT s_w_id, s_i_id, s_ytd, s_order_cnt FROM stock ORDER BY s_ytd DESC, s_w_id, s_i_id LIMIT 100`
	noChkStock    = `SELECT s_i_id, s_ytd FROM stock WHERE s_w_id = $1`
	noChkStockAgg = `SELECT s_w_id, count(*), sum(s_ytd) FROM stock GROUP BY s_w_id`
)

var noStatements = []string{noSelWarehouse, noSelDistrict, noUpdDistrict, noSelCustomer, noInsOrder,
	noInsNewOrder, noSelItem, noSelStock, noUpdStock, noInsLine}

// noWarmTxns is each worker's warm-up length, run as part of setup.
const noWarmTxns = 40

type neworder struct {
	seed    int64
	ifc     bool
	fsync   bool
	dataDir string
	node    *node
	owner   ifdb.Principal
	tags    []ifdb.Tag
	workers [2]*noWorker
}

// noWorker is one client goroutine: a direct Conn with every New-Order
// statement prepared, and the generator's record of what it committed.
type noWorker struct {
	gen   *newOrderGen
	conn  *client.Conn
	stmts map[string]*client.Stmt
	// orders[w][d] counts committed orders; lines their order lines;
	// ytd and cnt the stock updates by (w, item).
	orders map[[2]int64]int64
	lines  map[[2]int64]int64
	ytd    map[[2]int64]int64
	cnt    map[[2]int64]int64
}

func newNeworder(seed int64, dir string, o opts) workload {
	return &neworder{seed: seed, ifc: o.ifc, fsync: o.fsync, dataDir: filepath.Join(dir, "data")}
}

func (w *neworder) setup() error {
	mode := "off"
	if w.fsync {
		mode = "group"
	}
	n, err := startNode(ifdb.Config{IFC: w.ifc, DataDir: w.dataDir, SyncMode: mode, BufferPoolPages: 64}, false)
	if err != nil {
		return err
	}
	w.node = n
	db := n.db
	if _, err := db.AdminSession().Exec(noSchema); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	w.owner = db.CreatePrincipal("dbt2")
	if w.ifc {
		for i := 0; i < noTags; i++ {
			t, err := db.CreateTag(w.owner, fmt.Sprintf("dbt2_tag_%d", i))
			if err != nil {
				return err
			}
			w.tags = append(w.tags, t)
		}
	}
	if err := w.load(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for i := range w.workers {
		c, err := w.dial()
		if err != nil {
			return err
		}
		x := &noWorker{gen: newNewOrderGen(w.seed, i), conn: c, stmts: map[string]*client.Stmt{},
			orders: map[[2]int64]int64{}, lines: map[[2]int64]int64{}, ytd: map[[2]int64]int64{}, cnt: map[[2]int64]int64{}}
		w.workers[i] = x
		for _, text := range noStatements {
			if x.stmts[text], err = c.Prepare(text); err != nil {
				return fmt.Errorf("prepare %q: %w", text, err)
			}
		}
	}
	warm := w.run(func(tl *tally, _ time.Time) bool { return tl.attempted < noWarmTxns }, nil)
	if warm.failed() > 0 {
		return fmt.Errorf("warm-up: %d failed: %v", warm.failed(), warm.firstErr)
	}
	return nil
}

// dial opens a Conn carrying the workload's 4-tag label, so every read
// passes confinement and every write is stamped with the label.
func (w *neworder) dial() (*client.Conn, error) {
	c, err := client.DialConfig(client.Config{Addr: w.node.addr, Principal: uint64(w.owner)})
	if err != nil {
		return nil, err
	}
	for _, t := range w.tags {
		c.AddSecrecy(t)
	}
	return c, nil
}

func (w *neworder) session() (*ifdb.Session, error) {
	s := w.node.db.NewSession(w.owner)
	for _, t := range w.tags {
		if err := s.AddSecrecy(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (w *neworder) load() error {
	s, err := w.session()
	if err != nil {
		return err
	}
	rng := stream(w.seed, 101)
	exec := func(text string, args ...ifdb.Value) {
		if err == nil {
			_, err = s.Exec(text, args...)
		}
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		return err
	}
	for i := int64(1); i <= noItems; i++ {
		exec(`INSERT INTO item VALUES ($1, $2, $3)`, ifdb.Int(i), ifdb.Text(fmt.Sprintf("item-%d", i)), ifdb.Float(1+rng.Float64()*99))
	}
	for wh := int64(1); wh <= noWarehouses; wh++ {
		exec(`INSERT INTO warehouse VALUES ($1, $2, $3, 0.0)`, ifdb.Int(wh), ifdb.Text(fmt.Sprintf("w%d", wh)), ifdb.Float(rng.Float64()*0.2))
		for d := int64(1); d <= noDistricts; d++ {
			exec(`INSERT INTO district VALUES ($1, $2, $3, 0.0, 1)`, ifdb.Int(wh), ifdb.Int(d), ifdb.Float(rng.Float64()*0.2))
			for c := int64(1); c <= noCustomers; c++ {
				exec(`INSERT INTO customer VALUES ($1, $2, $3, $4, 10.0)`, ifdb.Int(wh), ifdb.Int(d), ifdb.Int(c),
					ifdb.Text(fmt.Sprintf("cust-%d-%d-%d", wh, d, c)))
			}
		}
		for i := int64(1); i <= noItems; i++ {
			exec(`INSERT INTO stock VALUES ($1, $2, $3, 0, 0)`, ifdb.Int(wh), ifdb.Int(i), ifdb.Int(10+rng.Int63n(90)))
		}
	}
	if err != nil {
		return err
	}
	return s.Commit()
}

func (w *neworder) window(d time.Duration, tr *tracer) *tally {
	deadline := time.Now().Add(d)
	t0 := w.node.db.WALEnd()
	tl := w.run(func(_ *tally, now time.Time) bool { return now.Before(deadline) }, tr)
	tl.walBytes = int64(w.node.db.WALEnd() - t0)
	return tl
}

func (w *neworder) run(more func(*tally, time.Time) bool, tr *tracer) *tally {
	var wg sync.WaitGroup
	tallies := [2]*tally{newTally(), newTally()}
	for i, x := range w.workers {
		wg.Add(1)
		go func(x *noWorker, tl *tally) {
			defer wg.Done()
			for more(tl, time.Now()) {
				w.newOrder(x, x.gen.next(), tl, tr)
			}
		}(x, tallies[i])
	}
	wg.Wait()
	tallies[0].merge(tallies[1])
	return tallies[0]
}

// newOrder runs one transaction, retrying serialization failures until
// it commits; any other error fails the operation.
func (w *neworder) newOrder(x *noWorker, op newOrderOp, tl *tally, tr *tracer) {
	tl.begin("txn")
	start := time.Now()
	for {
		err := w.attempt(x, op, tl, tr)
		if err == nil {
			break
		}
		// A failed statement has usually aborted the transaction already,
		// so ROLLBACK's "no open transaction" is expected; a connection it
		// left unusable fails the next BEGIN, which is reported.
		_, _ = x.conn.Exec("ROLLBACK")
		if !isSerialization(err) {
			tl.fail(err)
			return
		}
		tl.retried++
	}
	tl.succeed("txn", msSince(start))
	key := [2]int64{op.w, op.d}
	x.orders[key]++
	x.lines[key] += int64(len(op.items))
	for i, it := range op.items {
		x.ytd[[2]int64{op.w, it}] += op.qty[i]
		x.cnt[[2]int64{op.w, it}]++
	}
}

func (w *neworder) attempt(x *noWorker, op newOrderOp, tl *tally, tr *tracer) error {
	id := int64(0)
	if tr != nil {
		id = tr.op()
	}
	exec := func(class string, st *client.Stmt, text string, args ...ifdb.Value) (*client.Result, error) {
		start := time.Now()
		var res *client.Result
		var err error
		if st != nil {
			res, err = st.Exec(args...)
		} else {
			res, err = x.conn.Exec(text)
		}
		dur := time.Since(start)
		tl.stmts++
		if class == "update" || class == "insert" {
			tl.observe("write", float64(dur.Nanoseconds())/1e6)
		}
		if tr != nil {
			tr.stmt(x.conn, id, class, start, dur)
		}
		if err == nil {
			tl.rowsOut += int64(len(res.Rows))
		}
		return res, err
	}
	row := func(res *client.Result, err error) ([]client.Value, error) {
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != 1 {
			return nil, fmt.Errorf("point read returned %d rows", len(res.Rows))
		}
		return res.Rows[0], nil
	}
	st := x.stmts
	if _, err := exec("begin", nil, "BEGIN"); err != nil {
		return err
	}
	wr, err := row(exec("point_read", st[noSelWarehouse], "", ifdb.Int(op.w)))
	if err != nil {
		return err
	}
	dr, err := row(exec("point_read", st[noSelDistrict], "", ifdb.Int(op.w), ifdb.Int(op.d)))
	if err != nil {
		return err
	}
	oID := dr[1].Int()
	if _, err := exec("update", st[noUpdDistrict], "", ifdb.Int(op.w), ifdb.Int(op.d), ifdb.Int(oID+1)); err != nil {
		return err
	}
	if _, err := row(exec("point_read", st[noSelCustomer], "", ifdb.Int(op.w), ifdb.Int(op.d), ifdb.Int(op.c))); err != nil {
		return err
	}
	if _, err := exec("insert", st[noInsOrder], "", ifdb.Int(op.w), ifdb.Int(op.d), ifdb.Int(oID), ifdb.Int(op.c),
		ifdb.Int(op.seq), ifdb.Int(int64(len(op.items)))); err != nil {
		return err
	}
	if _, err := exec("insert", st[noInsNewOrder], "", ifdb.Int(op.w), ifdb.Int(op.d), ifdb.Int(oID)); err != nil {
		return err
	}
	tax := 1 + wr[0].Float() + dr[0].Float()
	for i, it := range op.items {
		ir, err := row(exec("point_read", st[noSelItem], "", ifdb.Int(it)))
		if err != nil {
			return err
		}
		sr, err := row(exec("point_read", st[noSelStock], "", ifdb.Int(op.w), ifdb.Int(it)))
		if err != nil {
			return err
		}
		q := op.qty[i]
		sq := sr[0].Int()
		if sq-q < 10 {
			sq += 91
		}
		if _, err := exec("update", st[noUpdStock], "", ifdb.Int(op.w), ifdb.Int(it), ifdb.Int(sq-q),
			ifdb.Int(sr[1].Int()+q), ifdb.Int(sr[2].Int()+1)); err != nil {
			return err
		}
		if _, err := exec("insert", st[noInsLine], "", ifdb.Int(op.w), ifdb.Int(op.d), ifdb.Int(oID), ifdb.Int(int64(i+1)),
			ifdb.Int(it), ifdb.Int(q), ifdb.Float(float64(q)*ir[0].Float()*tax)); err != nil {
			return err
		}
	}
	_, err = exec("commit", nil, "COMMIT")
	return err
}

// noRecord is what the workers committed, merged: orders and lines
// per (w, d), and s_ytd and s_order_cnt increments per (w, item).
type noRecord struct {
	orders, lines, ytd, cnt map[[2]int64]int64
	totalLines              int64
}

func (w *neworder) record() noRecord {
	r := noRecord{orders: map[[2]int64]int64{}, lines: map[[2]int64]int64{}, ytd: map[[2]int64]int64{}, cnt: map[[2]int64]int64{}}
	for _, x := range w.workers {
		for k, v := range x.orders {
			r.orders[k] += v
		}
		for k, v := range x.lines {
			r.lines[k] += v
			r.totalLines += v
		}
		for k, v := range x.ytd {
			r.ytd[k] += v
		}
		for k, v := range x.cnt {
			r.cnt[k] += v
		}
	}
	return r
}

// probe times checked queries over the stock table (8000 rows on disk,
// the same size on every run) on the state set-up left: one warehouse's
// stock streamed (first_row: a selective scan's first row), s_ytd summed per warehouse (agg), and the
// top 100 rows by s_ytd (topk). The first probeWarm rounds are not
// timed: the queries run slower until the buffer pools and caches
// settle.
func (w *neworder) probe(pt *tally, reps int) error {
	c, err := w.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	rec := w.record()
	const wh = noWarehouses // its rows come last in the scan
	for r := -probeWarm; r < reps; r++ {
		observe := func(class string, start time.Time) {
			if r >= 0 {
				pt.observe(class, msSince(start))
			}
		}
		runtime.GC() // time the queries, not a collection set-up left pending
		start := time.Now()
		rows, err := c.Query(noChkStock, ifdb.Int(wh))
		if err != nil {
			return fmt.Errorf("stock scan: %w", err)
		}
		n := 0
		for rows.Next() {
			if n == 0 {
				observe("first_row", start)
			}
			row := rows.Row()
			if key := [2]int64{wh, row[0].Int()}; row[1].Int() != rec.ytd[key] {
				rows.Close()
				return fmt.Errorf("stock %v: s_ytd %v, want %d", key, row[1], rec.ytd[key])
			}
			n++
		}
		if err := rows.Close(); err != nil {
			return fmt.Errorf("stock scan: %w", err)
		}
		if n != noItems {
			return fmt.Errorf("stock scan of warehouse %d: %d rows", wh, n)
		}

		start = time.Now()
		res, err := c.Exec(noChkStockAgg)
		if err != nil {
			return fmt.Errorf("stock aggregate: %w", err)
		}
		observe("agg", start)
		if len(res.Rows) != noWarehouses {
			return fmt.Errorf("stock aggregate: %d groups", len(res.Rows))
		}
		for _, row := range res.Rows {
			var sum int64
			for i := int64(1); i <= noItems; i++ {
				sum += rec.ytd[[2]int64{row[0].Int(), i}]
			}
			if row[1].Int() != noItems || row[2].Int() != sum {
				return fmt.Errorf("stock aggregate %v: count=%v sum=%v, want %d %d", row[0], row[1], row[2], noItems, sum)
			}
		}

		start = time.Now()
		res, err = c.Exec(noChkTopStock)
		if err != nil {
			return fmt.Errorf("stock top-k: %w", err)
		}
		observe("topk", start)
		if err := checkTopStock(res.Rows, rec.ytd, rec.cnt); err != nil {
			return err
		}
	}
	return nil
}

// check verifies TPC-C consistency and the generator's record over a
// fresh labeled Conn: d_next_o_id - 1 = max(o_id) = count of the
// district's committed orders, count(order_line) = sum(o_ol_cnt) = the
// committed lines, and the top stock rows by s_ytd.
func (w *neworder) check() error {
	c, err := w.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	rec := w.record()
	res, err := c.Exec(noChkDistrict)
	if err != nil {
		return fmt.Errorf("district scan: %w", err)
	}
	if len(res.Rows) != noWarehouses*noDistricts {
		return fmt.Errorf("district scan: %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		key := [2]int64{row[0].Int(), row[1].Int()}
		if got := row[2].Int() - 1; got != rec.orders[key] {
			return fmt.Errorf("district %v: d_next_o_id-1 = %d, committed orders %d", key, got, rec.orders[key])
		}
	}
	res, err = c.Exec(noChkOrders)
	if err != nil {
		return fmt.Errorf("orders aggregate: %w", err)
	}
	var olSum int64
	for _, row := range res.Rows {
		key := [2]int64{row[0].Int(), row[1].Int()}
		if row[2].Int() != rec.orders[key] || row[3].Int() != rec.orders[key] || row[4].Int() != rec.lines[key] {
			return fmt.Errorf("orders %v: max=%v count=%v lines=%v, want %d orders, %d lines",
				key, row[2], row[3], row[4], rec.orders[key], rec.lines[key])
		}
		olSum += row[4].Int()
	}
	res, err = c.Exec(noChkLines)
	if err != nil {
		return fmt.Errorf("order_line count: %w", err)
	}
	if got := res.Rows[0][0].Int(); got != olSum || got != rec.totalLines {
		return fmt.Errorf("count(order_line) = %d, sum(o_ol_cnt) = %d, committed lines %d", got, olSum, rec.totalLines)
	}
	res, err = c.Exec(noChkTopStock)
	if err != nil {
		return fmt.Errorf("stock top-k: %w", err)
	}
	return checkTopStock(res.Rows, rec.ytd, rec.cnt)
}

func checkTopStock(rows [][]client.Value, ytd, cnt map[[2]int64]int64) error {
	keys := make([][2]int64, 0, noWarehouses*noItems)
	for wh := int64(1); wh <= noWarehouses; wh++ {
		for i := int64(1); i <= noItems; i++ {
			keys = append(keys, [2]int64{wh, i})
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ytd[ka] != ytd[kb] {
			return ytd[ka] > ytd[kb]
		}
		if ka[0] != kb[0] {
			return ka[0] < kb[0]
		}
		return ka[1] < kb[1]
	})
	if len(rows) != 100 {
		return fmt.Errorf("stock top-k: %d rows", len(rows))
	}
	for i, row := range rows {
		k := keys[i]
		if row[0].Int() != k[0] || row[1].Int() != k[1] || row[2].Int() != ytd[k] || row[3].Int() != cnt[k] {
			return fmt.Errorf("stock top-k row %d: got %v, want %v ytd=%d cnt=%d", i, row, k, ytd[k], cnt[k])
		}
	}
	return nil
}

func (w *neworder) layers(m metrics) error {
	db := w.node.db
	m["engine.inproc_point_read_us"] = 0
	if s, err := w.session(); err == nil {
		rng := rand.New(rand.NewSource(w.seed))
		m["engine.inproc_point_read_us"] = inprocUs(s, noSelStock, 3000, func(int) []ifdb.Value {
			return []ifdb.Value{ifdb.Int(1 + rng.Int63n(noWarehouses)), ifdb.Int(1 + rng.Int63n(noItems))}
		})
	}
	frontEnd(m, db.Engine().Catalog(), noStatements)
	l := ifdb.NewLabel(w.tags...)
	m["label.flows_ns"] = flowsNs(db.Engine().Hierarchy(), l, l)
	// Heap files hold what the pools have written back; a checkpoint
	// flushes the rest so the file bytes cover every disk row.
	m["pager.heap_bytes_per_row"] = 0
	var rows int
	for _, t := range db.Engine().Catalog().Tables() {
		if t.OnDisk {
			rows += t.Heap.Len()
		}
	}
	if err := db.Checkpoint(); err == nil {
		m["pager.heap_bytes_per_row"] = ratio(float64(heapBytes(w.dataDir)), float64(rows))
	}
	m["defect.stale_cancel_frac"] = 0
	return nil
}

func (w *neworder) tupleBytes() float64 {
	st := w.node.db.Stats()
	return ratio(float64(st.TupleBytes), float64(st.Tuples))
}

func (w *neworder) close() {
	for _, x := range w.workers {
		if x != nil && x.conn != nil {
			x.conn.Close()
		}
	}
	if w.node != nil {
		w.node.close()
	}
}
