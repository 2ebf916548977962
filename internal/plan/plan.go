// Package plan is the pull-based query executor behind the engine:
// parse → logical plan tree → ordered rule-based analysis (column and
// table resolution, IFC-label-aware predicate pushdown below scans,
// index selection, projection pruning) → volcano-style iterators whose
// Next() produces one row at a time, so a large result streams to the
// wire instead of materializing.
//
// The package is a drop-in replacement for the engine's legacy
// tree-walking executor, which remains available behind
// engine.Config.LegacyExec as the oracle of the differential test
// harness (plan/difftest). Equivalence with the legacy executor is the
// design constraint everything here bends around:
//
//   - Error strings are byte-identical, including the "engine:" prefix
//     on messages the legacy executor owned. That is deliberate: the
//     differential harness compares error text.
//   - Predicate pushdown only happens when the whole WHERE tree is
//     infallible (no expression shape that exec.Eval can fail on), so
//     splitting the conjunction between the scan and the residual
//     filter can never reorder or suppress an error the legacy
//     all-rows-then-filter pipeline would have reported.
//   - Pushed predicates are evaluated only after MVCC visibility and
//     the Label Confinement Rule have admitted the tuple — a pushed
//     predicate can never observe (or leak through a side channel of)
//     a row the process label does not cover. This keeps the paper's
//     §7.1 property: information flow is enforced below the executor,
//     so planner bugs cannot bypass it.
//
// Known, documented divergences from the legacy executor (all outside
// what the differential harness generates): LIMIT/OFFSET expressions
// are evaluated against an empty row at iterator open rather than
// whatever row the legacy executor's shared env last held; when a
// statement contains several independent runtime faults, pipelining
// may surface a different one than the legacy stage order did; and
// LIMIT stops pulling early when the subtree is provably free of
// state-changing functions, so evaluation counts (not results) can
// differ under LIMIT.
package plan

import (
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// Row is one tuple flowing through a plan: values, the tuple's
// (strip-adjusted) secrecy label, its integrity label, and — between
// the projection and sort operators — the ORDER BY keys.
type Row struct {
	Vals []types.Value
	Lbl  label.Label
	ILbl label.Label
	Sort []types.Value
}

// Iter is a volcano-style iterator: Next returns the next row, or
// (nil, nil) when the input is exhausted. Close releases resources and
// flushes scan accounting; it is idempotent.
type Iter interface {
	Next() (*Row, error)
	Close()
}

// Runtime supplies the session-dependent state a plan needs to
// execute. The plan tree itself is immutable and session-free (that is
// what makes it cacheable); everything that depends on the current
// transaction, process label, or parameters arrives here.
//
// A Runtime is a plain value with no per-execution closures: the
// engine embeds it in its statement cursor, and its Host is a single
// pointer to the session, so opening a cached plan allocates no hooks.
// Nested execution (subqueries, view bodies, a procedure's cursor)
// builds its own Runtime for the same session.
type Runtime struct {
	// Params are the statement's positional parameters.
	Params []types.Value
	// Tx is the statement's transaction; its snapshot decides MVCC
	// visibility.
	Tx *txn.Txn
	// Host is the session the statement runs for.
	Host Host
}

// Host is the session side of plan execution: function resolution,
// subqueries, the label rules, and cancellation.
type Host interface {
	// FuncResolver resolves scalar function calls (session functions
	// and stored procedures).
	exec.FuncResolver
	// Subqueries returns a subquery runner for params, bound to the
	// given declassify strip — subqueries inside a declassifying view
	// body must run with the view's strip, not the statement's.
	Subqueries(params []types.Value, strip label.Label) exec.SubqueryRunner
	// TupleVisible applies the Label Confinement and integrity rules.
	TupleVisible(tv *storage.TupleVersion, strip label.Label) bool
	// EffLabel strips declassified tags from a tuple label.
	EffLabel(l, strip label.Label) label.Label
	// Check polls for statement cancellation; scans call it per tuple.
	Check() error
	// Scanned receives each scan's visited-tuple count once, when the
	// scan finishes or is closed.
	Scanned(n int64)
}

// env builds an expression environment over schema with the subquery
// runner bound to strip. Iterators keep the Env by value.
func (rt *Runtime) env(schema exec.Schema, strip label.Label) exec.Env {
	e := exec.Env{Schema: schema, Params: rt.Params, Funcs: rt.Host}
	if len(strip) == 0 {
		e.Subq = (*lazySubq)(rt)
	} else {
		e.Subq = rt.Host.Subqueries(rt.Params, strip)
	}
	return e
}

// lazySubq is the subquery runner for the empty strip. It asks the
// host for a runner only when a subquery is evaluated, so the common
// plan with no subquery allocates none. A pointer conversion of the
// Runtime, it costs nothing to put in an Env.
type lazySubq Runtime

func (l *lazySubq) runner() exec.SubqueryRunner { return l.Host.Subqueries(l.Params, nil) }

func (l *lazySubq) ScalarSubquery(sub *sql.SelectStmt) (types.Value, error) {
	return l.runner().ScalarSubquery(sub)
}

func (l *lazySubq) InSubquery(sub *sql.SelectStmt, v types.Value) (bool, error) {
	return l.runner().InSubquery(sub, v)
}

func (l *lazySubq) ExistsSubquery(sub *sql.SelectStmt) (bool, error) {
	return l.runner().ExistsSubquery(sub)
}

// Node is one operator of the plan tree.
type Node interface {
	// Schema is the operator's output schema.
	Schema() exec.Schema
	// open instantiates the operator's iterator.
	open(rt *Runtime) (Iter, error)
}

// Plan is an analyzed, executable query plan.
type Plan struct {
	Root Node

	// blocking reports whether any operator materializes its input
	// (sort, aggregate, join, distinct): when false, the plan streams
	// with O(batch) memory regardless of result size.
	blocking bool

	cols []string // output column names, computed once at Build
}

// Schema returns the plan's output schema.
func (p *Plan) Schema() exec.Schema { return p.Root.Schema() }

// Columns returns the output column names. The slice is shared by
// every execution of the plan and must not be modified.
func (p *Plan) Columns() []string { return p.cols }

// Open instantiates the plan's iterator tree against rt.
func (p *Plan) Open(rt *Runtime) (Iter, error) { return p.Root.open(rt) }

// Streaming reports whether the plan is fully pipelined: no operator
// holds more than one scan batch of rows at a time, so the result
// streams with bounded memory.
func (p *Plan) Streaming() bool { return !p.blocking }
