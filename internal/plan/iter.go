package plan

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// scanBatch is how many tuples a scan visits per refill. The heap (or
// index) position is released between batches, so a million-row scan
// never pins a lock or buffers more than one batch.
const scanBatch = 1024

// drainIter pulls it to exhaustion. Row structs are copied out of the
// iterator's internal buffer, so the result is stable.
func drainIter(it Iter) ([]Row, error) {
	var out []Row
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, *r)
	}
}

// ---------------------------------------------------------------------------
// Values (FROM-less SELECT)

type valuesIter struct{ done bool }

func (n *ValuesNode) open(rt *Runtime) (Iter, error) { return &valuesIter{}, nil }

func (it *valuesIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return &Row{}, nil
}

func (it *valuesIter) Close() {}

// ---------------------------------------------------------------------------
// Scan

type scanIter struct {
	n   *ScanNode
	rt  *Runtime
	env exec.Env // pushed-predicate env over the full table schema

	key []types.Value // index probe prefix (index mode)

	buf []Row
	pos int

	batch storage.BatchScanner // heap mode; nil → one-shot fallback
	next  storage.TID
	// visit is visitTuple bound once at open, so a heap refill
	// allocates no callback; it leaves its error in visitErr.
	visit    func(storage.TID, *storage.TupleVersion) bool
	visitErr error

	lastKey index.Key // index mode resume position
	lastTID storage.TID

	done     bool
	err      error
	scanned  int64
	reported bool
}

func (n *ScanNode) open(rt *Runtime) (Iter, error) {
	it := &scanIter{n: n, rt: rt, env: rt.env(n.fullSchema, n.Strip)}
	if len(n.Eq) > 0 {
		// Bind the filter's constants. Evaluation (and its errors —
		// e.g. a missing parameter) happens here, before any tuple is
		// visited, exactly where the legacy scan evaluated them.
		eq := make(map[int]types.Value, len(n.Eq))
		for _, e := range n.Eq {
			v, err := exec.Eval(e.Expr, &exec.Env{Params: rt.Params})
			if err != nil {
				return nil, err
			}
			eq[e.Col] = v
		}
		if n.Index != nil {
			it.key = make([]types.Value, n.Prefix)
			for i := 0; i < n.Prefix; i++ {
				it.key[i] = eq[n.Index.Cols[i]]
			}
		}
	}
	if n.Index == nil {
		if bs, ok := n.Table.Heap.(storage.BatchScanner); ok {
			it.batch = bs
		}
		it.visit = it.visitTuple
	}
	return it, nil
}

// accept applies, in order: MVCC visibility, the Label Confinement
// Rule, and only then any pushed predicates — a pushed predicate can
// never touch a tuple the process label does not cover. Accepted rows
// are buffered, pruned to the scan's output columns.
func (it *scanIter) accept(tv *storage.TupleVersion) error {
	it.scanned++
	if !it.rt.Tx.Visible(tv.Xmin, tv.Xmax) {
		return nil
	}
	if !it.rt.Host.TupleVisible(tv, it.n.Strip) {
		return nil
	}
	lbl := it.rt.Host.EffLabel(tv.Label, it.n.Strip)
	if len(it.n.Pushed) > 0 {
		it.env.Row = tv.Row
		it.env.RowLabel = lbl
		it.env.RowILabel = tv.ILabel
		for _, p := range it.n.Pushed {
			v, err := exec.Eval(p, &it.env)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
	}
	vals := tv.Row
	if it.n.Out != nil {
		vals = make([]types.Value, len(it.n.Out))
		for i, c := range it.n.Out {
			vals[i] = tv.Row[c]
		}
	}
	it.buf = append(it.buf, Row{Vals: vals, Lbl: lbl, ILbl: tv.ILabel})
	return nil
}

func (it *scanIter) visitTuple(_ storage.TID, tv *storage.TupleVersion) bool {
	if it.visitErr = it.rt.Host.Check(); it.visitErr != nil {
		return false
	}
	it.visitErr = it.accept(tv)
	return it.visitErr == nil
}

func (it *scanIter) refillHeap() error {
	next, more := it.batch.ScanFrom(it.next, scanBatch, it.visit)
	it.next = next
	if it.visitErr != nil {
		return it.visitErr
	}
	if !more {
		it.done = true
	}
	return nil
}

// materializeHeap is the fallback for heaps without BatchScanner: one
// locked pass, everything buffered (legacy behaviour).
func (it *scanIter) materializeHeap() error {
	it.n.Table.Heap.Scan(it.visit)
	it.done = true
	return it.visitErr
}

func (it *scanIter) refillIndex() error {
	var cbErr error
	lastKey, lastTID, more := it.n.Index.Tree.AscendPrefixAfter(it.key, it.lastKey, it.lastTID, scanBatch,
		func(k index.Key, tid storage.TID) bool {
			if cbErr = it.rt.Host.Check(); cbErr != nil {
				return false
			}
			if tv, ok := it.n.Table.Heap.Get(tid); ok {
				if cbErr = it.accept(&tv); cbErr != nil {
					return false
				}
			}
			return true
		})
	if cbErr != nil {
		return cbErr
	}
	if more {
		it.lastKey, it.lastTID = lastKey, lastTID
	} else {
		it.done = true
	}
	return nil
}

func (it *scanIter) Next() (*Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	for it.pos >= len(it.buf) {
		if it.done {
			it.finish()
			return nil, nil
		}
		it.buf = it.buf[:0]
		it.pos = 0
		var err error
		switch {
		case it.n.Index != nil:
			err = it.refillIndex()
		case it.batch != nil:
			err = it.refillHeap()
		default:
			err = it.materializeHeap()
		}
		if err != nil {
			it.err = err
			it.finish()
			return nil, err
		}
	}
	r := &it.buf[it.pos]
	it.pos++
	return r, nil
}

func (it *scanIter) finish() {
	if !it.reported {
		it.reported = true
		it.rt.Host.Scanned(it.scanned)
	}
}

func (it *scanIter) Close() { it.finish() }

// ---------------------------------------------------------------------------
// Rename (views and derived tables)

func (n *RenameNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		if n.ViewName != "" {
			return nil, fmt.Errorf("engine: view %q: %w", n.ViewName, err)
		}
		return nil, err
	}
	if n.ViewName == "" {
		return child, nil // pure schema rename, rows pass through
	}
	return &viewIter{name: n.ViewName, child: child}, nil
}

// viewIter wraps body errors in the legacy view envelope.
type viewIter struct {
	name  string
	child Iter
}

func (it *viewIter) Next() (*Row, error) {
	r, err := it.child.Next()
	if err != nil {
		return nil, fmt.Errorf("engine: view %q: %w", it.name, err)
	}
	return r, nil
}

func (it *viewIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Filter

type filterIter struct {
	n     *FilterNode
	child Iter
	env   exec.Env
}

func (n *FilterNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &filterIter{n: n, child: child, env: rt.env(n.Child.Schema(), n.Strip)}, nil
}

func (it *filterIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
		v, err := exec.Eval(it.n.Cond, &it.env)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Joins (blocking: the legacy join algorithms run verbatim over the
// materialized inputs, preserving row order, label math, and errors)

type joinIter struct {
	n       *JoinNode
	rt      *Runtime
	left    Iter
	started bool
	out     []Row
	pos     int
}

func (n *JoinNode) open(rt *Runtime) (Iter, error) {
	left, err := n.Left.open(rt)
	if err != nil {
		return nil, err
	}
	return &joinIter{n: n, rt: rt, left: left}, nil
}

func (it *joinIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		if err := it.drain(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := &it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *joinIter) drain() error {
	n, rt := it.n, it.rt
	leftRows, err := drainIter(it.left)
	it.left.Close()
	if err != nil {
		return err
	}
	// The right side opens only after the left finished, keeping the
	// legacy error order: left-input errors surface before any
	// right-side error.
	right, err := n.Right.open(rt)
	if err != nil {
		return err
	}
	rightRows, err := drainIter(right)
	right.Close()
	if err != nil {
		return err
	}

	env := rt.env(n.schema, n.Strip)
	nullsRight := make([]types.Value, len(n.Right.Schema()))

	emit := func(lr Row, rr *Row) error {
		var combined []types.Value
		if rr != nil {
			combined = append(append([]types.Value{}, lr.Vals...), rr.Vals...)
			env.Row = combined
			env.RowLabel = lr.Lbl.Union(rr.Lbl)
			env.RowILabel = lr.ILbl.Intersect(rr.ILbl)
			v, err := exec.Eval(n.On, &env)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return errNoMatch
			}
			it.out = append(it.out, Row{Vals: combined, Lbl: env.RowLabel, ILbl: env.RowILabel})
			return nil
		}
		combined = append(append([]types.Value{}, lr.Vals...), nullsRight...)
		it.out = append(it.out, Row{Vals: combined, Lbl: lr.Lbl, ILbl: lr.ILbl})
		return nil
	}

	if n.Strategy == JoinHash {
		ht := make(map[string][]int, len(rightRows))
		for ri := range rightRows {
			k := hashKey(rightRows[ri].Vals, n.RightKeys)
			ht[k] = append(ht[k], ri)
		}
		for _, lr := range leftRows {
			k := hashKey(lr.Vals, n.LeftKeys)
			matched := false
			for _, ri := range ht[k] {
				switch err := emit(lr, &rightRows[ri]); err {
				case nil:
					matched = true
				case errNoMatch:
				default:
					return err
				}
			}
			if !matched && n.Kind == "LEFT" {
				if err := emit(lr, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for _, lr := range leftRows {
		matched := false
		for ri := range rightRows {
			switch err := emit(lr, &rightRows[ri]); err {
			case nil:
				matched = true
			case errNoMatch:
			default:
				return err
			}
		}
		if !matched && n.Kind == "LEFT" {
			if err := emit(lr, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// errNoMatch is an internal signal of emit: the ON clause evaluated
// non-true. Never escapes the join.
var errNoMatch = fmt.Errorf("plan: no match")

func (it *joinIter) Close() { it.left.Close() }

type indexJoinIter struct {
	n       *IndexJoinNode
	rt      *Runtime
	left    Iter
	started bool
	out     []Row
	pos     int
}

func (n *IndexJoinNode) open(rt *Runtime) (Iter, error) {
	left, err := n.Left.open(rt)
	if err != nil {
		return nil, err
	}
	return &indexJoinIter{n: n, rt: rt, left: left}, nil
}

func (it *indexJoinIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		if err := it.drain(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := &it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *indexJoinIter) drain() error {
	n, rt := it.n, it.rt
	leftRows, err := drainIter(it.left)
	it.left.Close()
	if err != nil {
		return err
	}
	env := rt.env(n.schema, n.Strip)
	nullsRight := make([]types.Value, len(n.rightSchema))

	for _, lr := range leftRows {
		key := make([]types.Value, n.Prefix)
		for i := 0; i < n.Prefix; i++ {
			key[i] = lr.Vals[n.ProbeCols[i]]
		}
		matched := false
		var probeErr error
		n.Index.Tree.AscendPrefix(key, func(_ index.Key, tid storage.TID) bool {
			tv, ok := n.Table.Heap.Get(tid)
			if !ok {
				return true
			}
			if !rt.Tx.Visible(tv.Xmin, tv.Xmax) || !rt.Host.TupleVisible(&tv, n.Strip) {
				return true
			}
			combined := append(append([]types.Value{}, lr.Vals...), tv.Row...)
			env.Row = combined
			env.RowLabel = lr.Lbl.Union(rt.Host.EffLabel(tv.Label, n.Strip))
			env.RowILabel = lr.ILbl.Intersect(tv.ILabel)
			v, err := exec.Eval(n.On, &env)
			if err != nil {
				probeErr = err
				return false
			}
			if v.Truthy() {
				matched = true
				it.out = append(it.out, Row{Vals: combined, Lbl: env.RowLabel, ILbl: env.RowILabel})
			}
			return true
		})
		if probeErr != nil {
			return probeErr
		}
		if !matched && n.Kind == "LEFT" {
			combined := append(append([]types.Value{}, lr.Vals...), nullsRight...)
			it.out = append(it.out, Row{Vals: combined, Lbl: lr.Lbl, ILbl: lr.ILbl})
		}
	}
	return nil
}

func (it *indexJoinIter) Close() { it.left.Close() }

// ---------------------------------------------------------------------------
// Project

type projectIter struct {
	n     *ProjectNode
	child Iter
	env   exec.Env
}

func (n *ProjectNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &projectIter{n: n, child: child, env: rt.env(n.Child.Schema(), n.Strip)}, nil
}

func (it *projectIter) Next() (*Row, error) {
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
	vals := make([]types.Value, len(it.n.Items))
	for i, item := range it.n.Items {
		v, err := exec.Eval(item.Expr, &it.env)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	var keys []types.Value
	if len(it.n.OrderExprs) > 0 {
		keys = make([]types.Value, len(it.n.OrderExprs))
		for i, oe := range it.n.OrderExprs {
			v, err := exec.Eval(oe, &it.env)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
	}
	return &Row{Vals: vals, Lbl: r.Lbl, ILbl: r.ILbl, Sort: keys}, nil
}

func (it *projectIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Sort

// sortIter orders rows by (Sort keys, arrival sequence). The sequence
// makes the order total, so any sort algorithm — and a bounded heap —
// yields exactly the order a stable sort of the whole input gives.
//
// With a bound k = limit+offset it keeps at most k rows: the first k
// are buffered; once k are held they form a max-heap, and each later
// row either replaces the heap's greatest row or is dropped as it is
// pulled. It then skips offset rows and emits at most limit.
type sortIter struct {
	n       *SortNode
	child   Iter
	limit   int64
	offset  int64
	keep    int64 // row bound (limit+offset); -1 keeps every row
	started bool
	rows    []sortEntry
	pos     int
}

type sortEntry struct {
	row Row
	seq int64
}

// open evaluates LIMIT before OFFSET and both before the input opens,
// as the Limit and Offset operators the top-N sort replaces did.
func (n *SortNode) open(rt *Runtime) (Iter, error) {
	it := &sortIter{n: n, limit: math.MaxInt64, keep: -1}
	if n.Limit != nil {
		env := rt.env(nil, n.Strip)
		var err error
		if it.limit, err = evalIntConst(n.Limit, &env); err != nil {
			return nil, err
		}
		if n.Offset != nil {
			if it.offset, err = evalIntConst(n.Offset, &env); err != nil {
				return nil, err
			}
		}
		// An overflowing bound sorts the whole input.
		if it.limit <= math.MaxInt64-it.offset {
			it.keep = it.limit + it.offset
		}
	}
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	it.child = child
	return it, nil
}

func (it *sortIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		err := it.fill()
		it.child.Close()
		if err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := &it.rows[it.pos].row
	it.pos++
	return r, nil
}

// fill pulls the whole input, keeping the rows the bound admits, then
// sorts them and cuts the offset and limit window.
func (it *sortIter) fill() error {
	if it.keep >= 0 {
		// A huge LIMIT must not allocate up front: start at one batch.
		it.rows = make([]sortEntry, 0, min(it.keep, scanBatch))
	}
	for seq := int64(0); ; seq++ {
		r, err := it.child.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		switch held := int64(len(it.rows)); {
		case it.keep < 0 || held < it.keep:
			it.rows = append(it.rows, sortEntry{row: *r, seq: seq})
			if held+1 == it.keep {
				for i := len(it.rows)/2 - 1; i >= 0; i-- {
					it.siftDown(i)
				}
			}
		case it.keep > 0 && it.cmpRow(r, &it.rows[0].row) < 0:
			// r sorts before the greatest held row. A tie keeps the held
			// row: it arrived first.
			it.rows[0] = sortEntry{row: *r, seq: seq}
			it.siftDown(0)
		}
	}
	sort.Slice(it.rows, func(i, j int) bool { return it.less(i, j) })
	it.rows = it.rows[min(it.offset, int64(len(it.rows))):]
	it.rows = it.rows[:min(it.limit, int64(len(it.rows)))]
	return nil
}

// siftDown restores the max-heap property below rows[i].
func (it *sortIter) siftDown(i int) {
	n := len(it.rows)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && it.less(c, c+1) {
			c++
		}
		if !it.less(i, c) {
			return
		}
		it.rows[i], it.rows[c] = it.rows[c], it.rows[i]
		i = c
	}
}

func (it *sortIter) less(i, j int) bool {
	a, b := &it.rows[i], &it.rows[j]
	if c := it.cmpRow(&a.row, &b.row); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// cmpRow compares two rows by their ORDER BY keys and directions.
func (it *sortIter) cmpRow(a, b *Row) int {
	for k := range a.Sort {
		if c := a.Sort[k].Compare(b.Sort[k]); c != 0 {
			if it.n.Desc[k] {
				return -c
			}
			return c
		}
	}
	return 0
}

func (it *sortIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Distinct

type distinctIter struct {
	child Iter
	seen  map[string]bool
}

func (n *DistinctNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &distinctIter{child: child, seen: map[string]bool{}}, nil
}

func (it *distinctIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		k := rowKey(r.Vals)
		if !it.seen[k] {
			it.seen[k] = true
			return r, nil
		}
	}
}

func (it *distinctIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Offset / Limit

type offsetIter struct {
	child Iter
	skip  int64
}

func (n *OffsetNode) open(rt *Runtime) (Iter, error) {
	env := rt.env(nil, n.Strip)
	nv, err := evalIntConst(n.Expr, &env)
	if err != nil {
		return nil, err
	}
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &offsetIter{child: child, skip: nv}, nil
}

func (it *offsetIter) Next() (*Row, error) {
	for it.skip > 0 {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.skip--
	}
	return it.child.Next()
}

func (it *offsetIter) Close() { it.child.Close() }

type limitIter struct {
	child Iter
	left  int64
	pure  bool
	done  bool
}

func (n *LimitNode) open(rt *Runtime) (Iter, error) {
	env := rt.env(nil, n.Strip)
	nv, err := evalIntConst(n.Expr, &env)
	if err != nil {
		return nil, err
	}
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &limitIter{child: child, left: nv, pure: n.Pure}, nil
}

func (it *limitIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	if it.left <= 0 {
		it.done = true
		if !it.pure {
			// The subtree may call state-changing functions (nextval,
			// addsecrecy, ...); the legacy executor evaluated them for
			// every row before slicing, so keep pulling — discarding
			// rows — until the input runs dry.
			for {
				r, err := it.child.Next()
				if err != nil {
					return nil, err
				}
				if r == nil {
					return nil, nil
				}
			}
		}
		return nil, nil
	}
	r, err := it.child.Next()
	if err != nil || r == nil {
		it.done = true
		return nil, err
	}
	it.left--
	return r, nil
}

func (it *limitIter) Close() { it.child.Close() }

func evalIntConst(e sql.Expr, env *exec.Env) (int64, error) {
	v, err := exec.Eval(e, env)
	if err != nil {
		return 0, err
	}
	if v.Kind() != types.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("engine: LIMIT/OFFSET must be a non-negative integer")
	}
	return v.Int(), nil
}

// ---------------------------------------------------------------------------
// Key helpers (byte-compatible with the legacy executor)

func hashKey(vals []types.Value, cols []int) string {
	var b []byte
	for _, c := range cols {
		b = appendKey(b, vals[c])
	}
	return string(b)
}

func rowKey(vals []types.Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
}

// appendKey appends v's key encoding to b: its kind byte, its text
// form, and a NUL terminator. Two values get the same encoding exactly
// when the legacy executor's string keys were equal.
func appendKey(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindInt:
		b = strconv.AppendInt(b, v.Int(), 10)
	case types.KindText:
		b = append(b, v.Text()...)
	default:
		b = append(b, v.String()...)
	}
	return append(b, 0)
}
