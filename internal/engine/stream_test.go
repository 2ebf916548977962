package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// seedBig fills table big with n single-column rows via multi-row
// inserts (1000 literals per statement).
func seedBig(t *testing.T, s *Session, n int) {
	t.Helper()
	if _, err := s.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 1000 {
		hi := lo + 1000
		if hi > n {
			hi = n
		}
		var b strings.Builder
		b.WriteString(`INSERT INTO big VALUES `)
		for k := lo; k < hi; k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d)", k)
		}
		if _, err := s.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorCancelWithinOneBatch: a cancel that lands mid-stream must
// interrupt the scan within one iterator refill batch — the scan polls
// the cancel flag per tuple, so after the rows already buffered (at
// most one batch) drain, the very next refill fails with ErrCanceled.
func TestCursorCancelWithinOneBatch(t *testing.T) {
	const rows = 200_000
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	seedBig(t, s, rows)

	c, err := s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Streaming() {
		t.Fatal("keyless SELECT did not open a streaming cursor")
	}
	first, _, err := c.NextBatch(100)
	if err != nil || len(first) != 100 {
		t.Fatalf("first batch: %d rows, err %v", len(first), err)
	}

	s.Cancel()
	t0 := time.Now()
	extra := 0
	for {
		batch, _, err := c.NextBatch(500)
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("stream failed with %v, want ErrCanceled", err)
			}
			break
		}
		if len(batch) == 0 {
			t.Fatalf("stream drained all %d rows without noticing the cancel", rows+extra)
		}
		extra += len(batch)
	}
	// Bound: the rows buffered by the in-flight refill (≤1024) plus one
	// NextBatch granule of slack.
	if extra > 2048 {
		t.Fatalf("cancel landed after %d rows, want within one scan batch (≤2048)", extra)
	}
	if lat := time.Since(t0); lat > 2*time.Second {
		t.Fatalf("cancel-to-error latency %v", lat)
	}

	// The failed statement's autocommit transaction was aborted and the
	// session recovers once the flag clears.
	if s.InTxn() {
		t.Fatal("statement transaction still open after canceled stream")
	}
	s.ResetCancel()
	if _, err := s.Exec(`SELECT COUNT(*) FROM big WHERE k = 0`); err != nil {
		t.Fatalf("session dead after canceled cursor: %v", err)
	}
}

// TestCursorLifecycle covers the cursor's transaction handling around
// normal exhaustion, abandonment, DML fallback, and explicit
// transactions.
func TestCursorLifecycle(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	seedBig(t, s, 3000)

	// Exhaustion commits the autocommit transaction and frees the session.
	c, err := s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		rows, _, err := c.NextBatch(700)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		total += len(rows)
	}
	if total != 3000 {
		t.Fatalf("streamed %d rows, want 3000", total)
	}
	if s.InTxn() {
		t.Fatal("session still in txn after exhausted cursor")
	}

	// Abandonment: Close mid-stream aborts; the session stays usable.
	c, err = s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NextBatch(10); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if s.InTxn() {
		t.Fatal("abandoned cursor left its transaction open")
	}
	if _, err := s.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatalf("session dead after abandoned cursor: %v", err)
	}

	// DML falls back to a materialized cursor with the affected count.
	c, err = s.ExecStream(`UPDATE big SET k = k WHERE k < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Streaming() {
		t.Fatal("DML opened a streaming cursor")
	}
	if c.Affected() != 5 {
		t.Fatalf("affected %d, want 5", c.Affected())
	}

	// Explicit transaction: the cursor rides it and leaves it open.
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO big VALUES (999999)`); err != nil {
		t.Fatal(err)
	}
	c, err = s.ExecStream(`SELECT k FROM big WHERE k > 2990`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		rows, _, err := c.NextBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		n += len(rows)
	}
	if n != 10 { // 2991..2999 plus the uncommitted 999999
		t.Fatalf("in-txn stream saw %d rows, want 10", n)
	}
	if !s.InTxn() {
		t.Fatal("exhausted in-txn cursor closed the explicit transaction")
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
}

// TestCancelStatementScope: a statement-scoped cancel interrupts only
// the statement whose trace ID it names, and only while that statement
// is current; an unscoped cancel interrupts whatever runs.
func TestCancelStatementScope(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())

	s.ResetCancelFor(7)
	if s.CancelStatement(6); s.Canceled() {
		t.Fatal("a cancel naming another statement interrupted statement 7")
	}
	if s.CancelStatement(7); !s.Canceled() {
		t.Fatal("a cancel naming statement 7 did not interrupt it")
	}
	s.ResetCancelFor(8)
	if s.Canceled() {
		t.Fatal("statement 7's cancel carried over to statement 8")
	}
	if s.CancelStatement(7); s.Canceled() {
		t.Fatal("a late cancel naming statement 7 interrupted statement 8")
	}
	s.ResetCancel()
	if s.CancelStatement(8); s.Canceled() {
		t.Fatal("a cancel naming statement 8 landed after it ended")
	}
	s.Cancel()
	if !s.Canceled() {
		t.Fatal("an unscoped cancel was ignored")
	}
	s.ResetCancel()
	if _, err := s.Exec(`SELECT 1`); err != nil {
		t.Fatalf("session dead after cancel cleared: %v", err)
	}
}
