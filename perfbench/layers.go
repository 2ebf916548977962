package main

import (
	"time"

	"ifdb/internal/catalog"
	"ifdb/internal/distplan"
	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// frontEnd times sql.Parse, plan.Build (SELECTs only) and
// distplan.Split on a workload's statement texts, called directly.
func frontEnd(m metrics, cat *catalog.Catalog, texts []string) {
	const reps = 300
	var parseNs, planNs, splitNs float64
	var selects int
	for _, text := range texts {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = sql.Parse(text)
		}
		parseNs += float64(time.Since(t0)) / reps
		// plan.Build annotates its input, so each build gets a fresh
		// parse tree; the parses are made before the clock starts.
		var sels []*sql.SelectStmt
		for i := 0; i < reps; i++ {
			st, err := sql.Parse(text)
			if sel, ok := st.(*sql.SelectStmt); ok && err == nil {
				sels = append(sels, sel)
			}
		}
		if len(sels) > 0 {
			t0 = time.Now()
			for _, sel := range sels {
				_, _ = plan.Build(cat, sel, nil)
			}
			planNs += float64(time.Since(t0)) / float64(len(sels))
			selects++
		}
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			_ = distplan.Split(text, distplan.Options{})
		}
		splitNs += float64(time.Since(t0)) / reps
	}
	m["sql.parse_us"] = ratio(parseNs, float64(len(texts))) / 1e3
	m["plan.build_us"] = ratio(planNs, float64(selects)) / 1e3
	m["distplan.split_us"] = ratio(splitNs, float64(len(texts))) / 1e3
}

var flowSink bool

// flowsNs times label.Hierarchy.Flows for one tuple and process label.
func flowsNs(h *label.Hierarchy, tuple, proc label.Label) float64 {
	const n = 200_000
	ok := true
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ok = h.Flows(tuple, proc) && ok
	}
	flowSink = ok
	return float64(time.Since(t0)) / n
}

// inprocUs times n point reads on an in-process engine.Session: the
// statement's cost with no client or wire.
func inprocUs(s *engine.Session, text string, n int, key func(i int) []types.Value) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := s.Exec(text, key(i)...); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / float64(n) / 1e3
}
