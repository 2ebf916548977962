package plan

import (
	"fmt"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// This file ports the legacy engine's aggregation onto the iterator
// model. The iterator folds each input row into its group as the row
// is pulled, so it holds one accumulator set per group, never the
// input. Aggregate calls are rewritten to placeholder parameters
// allocated after the user's parameters, groups are emitted in
// first-seen order, and each output row's secrecy label is the union
// (integrity label the intersection) of its inputs — derived data
// carries the contamination of everything that fed it (Information
// Flow Rule).
//
// The legacy executor materialized the whole input before folding any
// of it. Two rules keep the streaming fold indistinguishable from that:
// an input error outranks a fold error raised on an earlier row, and a
// statement with state-changing calls (AggregateNode.Pure unset) still
// drains its input before the fold starts.
//
// The accumulator itself (exec.AggState) is shared with the legacy
// executor and the distributed gateway merge.

type aggIter struct {
	n       *AggregateNode
	rt      *Runtime
	child   Iter
	started bool
	out     []Row
	pos     int
}

func (n *AggregateNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &aggIter{n: n, rt: rt, child: child}, nil
}

func (it *aggIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		err := it.drain()
		it.child.Close()
		if err != nil {
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

// aggGroup is one group's fold state.
type aggGroup struct {
	rep    Row // representative row (first of group)
	states []*exec.AggState
	lbl    label.Label
	ilbl   label.Label
}

// aggFold folds input rows into groups.
type aggFold struct {
	n      *AggregateNode
	env    exec.Env
	aggs   []*sql.FuncCall
	groups map[string]*aggGroup
	order  []*aggGroup // first-seen order
	key    []byte      // group key of the current row, reused
}

func (f *aggFold) newGroup(rep Row) *aggGroup {
	g := &aggGroup{rep: rep, states: make([]*exec.AggState, len(f.aggs))}
	for i, fc := range f.aggs {
		g.states[i] = exec.NewAggState(fc)
	}
	return g
}

// add folds one row into its group.
func (f *aggFold) add(r *Row) error {
	f.env.Row, f.env.RowLabel, f.env.RowILabel = r.Vals, r.Lbl, r.ILbl
	f.key = f.key[:0]
	for _, ge := range f.n.GroupBy {
		v, err := exec.Eval(ge, &f.env)
		if err != nil {
			return err
		}
		f.key = appendKey(f.key, v)
	}
	g, ok := f.groups[string(f.key)] // no allocation on a hit
	if !ok {
		g = f.newGroup(*r)
		g.lbl, g.ilbl = r.Lbl.Clone(), r.ILbl
		f.groups[string(f.key)] = g
		f.order = append(f.order, g)
	} else {
		// Union and Intersect copy their result; skip them when it
		// would equal the label already held.
		if !r.Lbl.SubsetOf(g.lbl) {
			g.lbl = g.lbl.Union(r.Lbl)
		}
		if !g.ilbl.SubsetOf(r.ILbl) {
			g.ilbl = g.ilbl.Intersect(r.ILbl)
		}
	}
	for i, fc := range f.aggs {
		if fc.Star {
			if err := g.states[i].Add(types.Null); err != nil {
				return err
			}
			continue
		}
		if len(fc.Args) != 1 {
			return fmt.Errorf("engine: aggregate %s takes one argument", fc.Name)
		}
		v, err := exec.Eval(fc.Args[0], &f.env)
		if err != nil {
			return err
		}
		if err := g.states[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// addAll folds every row of in. A fold error stops the folding but not
// the pull: an error the input raises later still wins, as it did when
// the input was drained before the fold.
func (f *aggFold) addAll(in Iter) error {
	var foldErr error
	for {
		r, err := in.Next()
		if err != nil {
			return err
		}
		if r == nil {
			return foldErr
		}
		if foldErr == nil {
			foldErr = f.add(r)
		}
	}
}

func (it *aggIter) drain() error {
	n, rt := it.n, it.rt
	inSchema := n.Child.Schema()
	env := rt.env(inSchema, n.Strip)

	// Gather aggregate nodes across items, HAVING, and ORDER BY.
	var aggs []*sql.FuncCall
	seen := make(map[*sql.FuncCall]bool)
	for _, item := range n.Items {
		exec.CollectAggs(item.Expr, &aggs, seen)
	}
	exec.CollectAggs(n.Having, &aggs, seen)
	for _, oe := range n.OrderExprs {
		exec.CollectAggs(oe, &aggs, seen)
	}

	// Allocate placeholder parameter indexes after the user's params.
	base := len(env.Params)
	mapping := make(map[*sql.FuncCall]int, len(aggs))
	for i, fc := range aggs {
		mapping[fc] = base + i + 1
	}
	subItems := make([]sql.Expr, len(n.Items))
	for i, item := range n.Items {
		subItems[i] = exec.ReplaceAggs(item.Expr, mapping)
	}
	subHaving := exec.ReplaceAggs(n.Having, mapping)
	subOrder := make([]sql.Expr, len(n.OrderExprs))
	for i, oe := range n.OrderExprs {
		subOrder[i] = exec.ReplaceAggs(oe, mapping)
	}

	f := &aggFold{n: n, env: env, aggs: aggs, groups: make(map[string]*aggGroup)}
	if n.Pure {
		if err := f.addAll(it.child); err != nil {
			return err
		}
	} else {
		input, err := drainIter(it.child)
		if err != nil {
			return err
		}
		for i := range input {
			if err := f.add(&input[i]); err != nil {
				return err
			}
		}
	}

	// With no GROUP BY, an empty input still yields one group.
	if len(n.GroupBy) == 0 && len(f.order) == 0 {
		f.order = append(f.order, f.newGroup(Row{Vals: make([]types.Value, len(inSchema))}))
	}

	for _, g := range f.order {
		params := make([]types.Value, base+len(aggs))
		copy(params, env.Params)
		for i, st := range g.states {
			params[base+i] = st.Result()
		}
		genv := &exec.Env{
			Schema:    inSchema,
			Row:       g.rep.Vals,
			RowLabel:  g.lbl,
			RowILabel: g.ilbl,
			Params:    params,
			Funcs:     env.Funcs,
			Subq:      env.Subq,
		}
		if subHaving != nil {
			hv, err := exec.Eval(subHaving, genv)
			if err != nil {
				return err
			}
			if !hv.Truthy() {
				continue
			}
		}
		vals := make([]types.Value, len(subItems))
		for i, ie := range subItems {
			v, err := exec.Eval(ie, genv)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var keys []types.Value
		if len(subOrder) > 0 {
			keys = make([]types.Value, len(subOrder))
			for i, oe := range subOrder {
				v, err := exec.Eval(oe, genv)
				if err != nil {
					return err
				}
				keys[i] = v
			}
		}
		it.out = append(it.out, Row{Vals: vals, Lbl: g.lbl, ILbl: g.ilbl, Sort: keys})
	}
	return nil
}

func (it *aggIter) Close() { it.child.Close() }
