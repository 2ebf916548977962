package engine

import (
	"fmt"
	"runtime"
	"testing"

	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// preparedPointReadAllocs is the allocation budget of one in-process
// prepared point read under IFC: ExecPreparedStream, then NextBatch to
// exhaustion. The cursor embeds the plan runtime and the session binds
// its hooks without closures, so what remains is the cursor and its
// statement transaction, the iterators, and the rows they produce.
// Raise it only with a reason.
const preparedPointReadAllocs = 11

func TestPreparedPointReadAllocs(t *testing.T) {
	e := MustNew(Config{IFC: true})
	s := e.NewSession(e.Admin())
	if _, err := s.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)`); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewInt(2)}
	var got int
	var runErr error
	read := func() {
		c, err := s.ExecPreparedStream(p, params...)
		if err != nil {
			runErr = err
			return
		}
		defer c.Close()
		got = 0
		for !c.Done() {
			rows, _, err := c.NextBatch(256)
			if err != nil {
				runErr = err
				return
			}
			got += len(rows)
		}
	}
	allocs := testing.AllocsPerRun(200, read)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got != 1 {
		t.Fatalf("point read returned %d rows, want 1", got)
	}
	if allocs > preparedPointReadAllocs {
		t.Fatalf("prepared point read: %v allocs, budget %d", allocs, preparedPointReadAllocs)
	}
}

// Allocation budgets of the blocking operators. Raise them only with a
// reason.
const (
	// countStarAllocs bounds one count(*) over 1k rows and over 10k
	// rows alike: the fold keeps one accumulator and the scan binds its
	// callback once, so nothing is allocated per row or per batch.
	countStarAllocs = 32
	// groupByAllocsPerRow bounds a GROUP BY's allocations per input
	// row, measured as the difference between runs over 10k and 1k
	// rows so fixed per-statement costs cancel. The pruned scan's value
	// slice is the one allocation per row; the fold adds none.
	groupByAllocsPerRow = 1.1
	// topNBytesFrac bounds ORDER BY ... LIMIT 10 against the same query
	// without LIMIT: the top-N sort holds 10 rows, not the input.
	topNBytesFrac = 0.6
)

// loadAllocTable creates t(k, g, v) with rows public rows in 16
// groups and returns the prepared statements' session.
func loadAllocTable(t *testing.T, rows int) *Session {
	t.Helper()
	e := MustNew(Config{IFC: true})
	s := e.NewSession(e.Admin())
	if _, err := s.Exec(`CREATE TABLE t (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rows; k++ {
		if _, err := s.Exec(`INSERT INTO t VALUES ($1, $2, $3)`, types.NewInt(int64(k)),
			types.NewText(fmt.Sprintf("g%02d", k%16)), types.NewInt(int64(k*7919%rows))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// preparedQuery prepares query on s and returns a function that runs
// it once, streamed to exhaustion. The function records its first
// error, or a row count other than wantRows, in *runErr.
func preparedQuery(t *testing.T, s *Session, query string, wantRows int, runErr *error) func() {
	t.Helper()
	p, err := s.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		n, err := drainPrepared(s, p)
		if err == nil && n != wantRows {
			err = fmt.Errorf("%s: %d rows, want %d", query, n, wantRows)
		}
		if err != nil && *runErr == nil {
			*runErr = err
		}
	}
}

// queryAllocs returns the allocations one run of query makes.
func queryAllocs(t *testing.T, s *Session, query string, wantRows int) float64 {
	t.Helper()
	var runErr error
	allocs := testing.AllocsPerRun(20, preparedQuery(t, s, query, wantRows, &runErr))
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// queryBytes returns the bytes one run of query allocates, averaged
// over 20 runs after a warm-up run. testing.AllocsPerRun counts only
// allocations, so this reads MemStats itself, with GOMAXPROCS pinned
// to 1 as AllocsPerRun pins it.
func queryBytes(t *testing.T, s *Session, query string, wantRows int) float64 {
	t.Helper()
	var runErr error
	run := preparedQuery(t, s, query, wantRows, &runErr)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		t.Fatal(runErr)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func TestBlockingOperatorAllocs(t *testing.T) {
	small, large := loadAllocTable(t, 1_000), loadAllocTable(t, 10_000)

	const count = `SELECT count(*) FROM t`
	for _, s := range []*Session{small, large} {
		if got := queryAllocs(t, s, count, 1); got > countStarAllocs {
			t.Errorf("%s: %.0f allocs, budget %d", count, got, countStarAllocs)
		}
	}

	const group = `SELECT g, count(*), sum(v) FROM t GROUP BY g`
	a1 := queryAllocs(t, small, group, 16)
	a10 := queryAllocs(t, large, group, 16)
	if got := (a10 - a1) / 9_000; got > groupByAllocsPerRow {
		t.Errorf("%s: %.3f allocs per input row (%.0f at 1k rows, %.0f at 10k), budget %v",
			group, got, a1, a10, groupByAllocsPerRow)
	}

	topN := queryBytes(t, large, `SELECT k, v FROM t ORDER BY v DESC LIMIT 10`, 10)
	full := queryBytes(t, large, `SELECT k, v FROM t ORDER BY v DESC`, 10_000)
	if topN > topNBytesFrac*full {
		t.Errorf("ORDER BY v DESC LIMIT 10 allocated %.0f bytes, over %v of the full sort's %.0f",
			topN, topNBytesFrac, full)
	}
}
