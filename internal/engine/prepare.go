package engine

import (
	"errors"
	"time"

	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Prepared statements and statement cancellation: the engine half of
// the client API v2 (see ARCHITECTURE.md § Client API v2).
//
// A Prepared pins a statement batch's parsed AST for the lifetime of
// the handle, so repeated executions skip the parser (and even the
// parse-cache lookup) entirely — the optimization every real DBMS
// has, now reachable over the wire instead of only engine-side.

// ErrCanceled is returned by a statement interrupted by
// Session.Cancel. The statement's transaction is aborted through the
// ordinary error path: an autocommit transaction rolls back, an
// explicit one is aborted wholesale (PostgreSQL semantics).
var ErrCanceled = errors.New("engine: statement canceled")

// Prepared is a parsed, pinned statement batch. It is bound to no
// session (the AST is read-only during execution) but carries no
// synchronization: callers serialize executions per session as they
// do every other session operation.
type Prepared struct {
	// Text is the original statement batch.
	Text string
	// NumParams is the largest positional-parameter index the batch
	// binds.
	NumParams int

	// stmts is the pinned AST; nil when the batch contains DDL, whose
	// AST is consumed by execution and must be re-parsed per run.
	stmts []sql.Statement
}

// Prepare parses a statement batch once and pins the AST. The parse
// goes through the engine's parse cache, so preparing an
// already-cached text costs one map lookup and no parser invocation.
func (s *Session) Prepare(query string) (*Prepared, error) {
	stmts, err := s.eng.parseCached(query)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Text: query, NumParams: sql.MaxParam(stmts)}
	if cacheableStmts(stmts) {
		p.stmts = stmts
	}
	return p, nil
}

// cacheableStmts reports whether a batch's AST survives execution:
// read and DML statements do; DDL ASTs are consumed by execution and
// must stay private to one run.
func cacheableStmts(stmts []sql.Statement) bool {
	for _, st := range stmts {
		switch st.(type) {
		case *sql.SelectStmt, *sql.ExplainStmt, *sql.InsertStmt, *sql.UpdateStmt,
			*sql.DeleteStmt, *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		default:
			return false
		}
	}
	return true
}

// ExecPrepared executes a prepared batch with no parser involvement
// (DDL batches fall back to text execution, re-parsing per run).
func (s *Session) ExecPrepared(p *Prepared, params ...types.Value) (*Result, error) {
	if p.stmts == nil {
		return s.Exec(p.Text, params...)
	}
	if top := s.stmtTx == nil || s.stmtTx.Done(); top {
		// ParseNs stays zero: that a prepared execution never parses is
		// exactly what the breakdown should show.
		s.beginStmtStats(p.Text)
		t0 := time.Now()
		defer func() { s.stats.ExecNs = time.Since(t0).Nanoseconds() }()
	}
	if len(p.stmts) == 0 {
		return &Result{}, nil
	}
	var res *Result
	var err error
	for _, st := range p.stmts {
		res, err = s.ExecStmt(st, params...)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Cancellation

// Cancel interrupts the session's currently running statement: the
// statement fails with ErrCanceled at its next check point (per-row
// in scans, per-slice in sleep()), and the failure aborts its
// transaction through the ordinary error path. Safe to call from any
// goroutine — it is the one session operation that is: the wire
// server invokes it from an out-of-band cancel connection.
//
// Cancellation is flag-based, so an unscoped cancel that arrives
// between statements marks the *next* statement (the same benign race
// PostgreSQL's cancel protocol has); CancelStatement names the
// statement instead and cannot.
func (s *Session) Cancel() { s.CancelStatement(0) }

// CancelStatement interrupts the running statement if its trace ID is
// id (as stamped by ResetCancelFor); a zero id cancels whatever runs,
// as Cancel does. The check and the cancel are one step against
// ResetCancelFor, so a cancel meant for a statement that has already
// ended can never mark its successor.
func (s *Session) CancelStatement(id uint64) {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	if id != 0 && id != s.cancelScope {
		return
	}
	s.canceled.Store(true)
	mCancels.Inc()
}

// ResetCancel clears a pending cancel and ends any cancel scope (see
// ResetCancelFor).
func (s *Session) ResetCancel() { s.ResetCancelFor(0) }

// ResetCancelFor clears a pending cancel and scopes CancelStatement to
// the statement with trace ID id; zero means no statement. The wire
// server calls it as each statement arrives and again when it ends,
// bounding a cancel to the statement that was actually running.
func (s *Session) ResetCancelFor(id uint64) {
	s.cancelMu.Lock()
	s.cancelScope = id
	s.canceled.Store(false)
	s.cancelMu.Unlock()
}

// Canceled reports whether a cancel is pending. The wire server polls
// it between ROWS chunks so a cancel that lands after execution but
// mid-stream still cuts the response short instead of pushing the
// rest of a large result at an uninterested client.
func (s *Session) Canceled() bool { return s.canceled.Load() }

// checkCanceled is the statement-side check point.
func (s *Session) checkCanceled() error {
	if s.canceled.Load() {
		return ErrCanceled
	}
	return nil
}

// cancelableSleep sleeps for d in short slices, aborting early (with
// ErrCanceled) when the session is canceled — the sleep() SQL builtin,
// which exists so cancellation can be exercised deterministically.
func (s *Session) cancelableSleep(d time.Duration) error {
	const slice = 2 * time.Millisecond
	deadline := time.Now().Add(d)
	for {
		if err := s.checkCanceled(); err != nil {
			return err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		if remain > slice {
			remain = slice
		}
		time.Sleep(remain)
	}
}
