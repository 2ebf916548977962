package plan_test

import (
	"strings"
	"testing"

	"ifdb/internal/engine"
	"ifdb/internal/types"
)

// topNFixture holds t(k, v): 50 rows, v = k*7 mod 10, so every v value
// is shared by five rows and ORDER BY v alone leaves ties.
func topNFixture(t *testing.T) *engine.Session {
	t.Helper()
	e := engine.MustNew(engine.Config{IFC: true})
	s := e.NewSession(e.Admin())
	if _, err := s.Exec(`CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if _, err := s.Exec(`INSERT INTO t VALUES ($1, $2)`, types.NewInt(k), types.NewInt(k*7%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateSequence("s"); err != nil {
		t.Fatal(err)
	}
	return s
}

func keys(t *testing.T, s *engine.Session, query string, args ...types.Value) []string {
	t.Helper()
	res, err := s.Exec(query, args...)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].String()
	}
	return out
}

// TestTopNMatchesFullSort checks the bounded sort against a slice of
// the unbounded one, ties included, at the edges of the bound: LIMIT 0,
// a LIMIT larger than the input, and a limit+offset that overflows
// int64.
func TestTopNMatchesFullSort(t *testing.T) {
	s := topNFixture(t)
	asc := keys(t, s, `SELECT k FROM t ORDER BY v`)
	desc := keys(t, s, `SELECT k FROM t ORDER BY v DESC`)
	for _, tc := range []struct {
		query string
		args  []types.Value
		want  []string
	}{
		{`SELECT k FROM t ORDER BY v LIMIT 7`, nil, asc[:7]},
		{`SELECT k FROM t ORDER BY v DESC LIMIT 3 OFFSET 4`, nil, desc[4:7]},
		{`SELECT k FROM t ORDER BY v LIMIT 0`, nil, nil},
		{`SELECT k FROM t ORDER BY v LIMIT 60`, nil, asc},
		{`SELECT k FROM t ORDER BY v LIMIT 9223372036854775807`, nil, asc},
		{`SELECT k FROM t ORDER BY v LIMIT 9223372036854775807 OFFSET 1`, nil, asc[1:]},
		{`SELECT k FROM t ORDER BY v LIMIT $1 OFFSET $2`,
			[]types.Value{types.NewInt(9223372036854775807), types.NewInt(48)}, asc[48:]},
		{`SELECT k FROM t ORDER BY v DESC LIMIT $1 OFFSET $2`,
			[]types.Value{types.NewInt(6), types.NewInt(12)}, desc[12:18]},
	} {
		got := keys(t, s, tc.query, tc.args...)
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s %v:\n got  %v\n want %v", tc.query, tc.args, got, tc.want)
		}
	}
}

// TestTopNBadParams checks that a bad LIMIT or OFFSET parameter fails
// with the usual message before the scan visits any tuple: the
// projection's nextval never runs.
func TestTopNBadParams(t *testing.T) {
	s := topNFixture(t)
	const q = `SELECT nextval('s') FROM t ORDER BY v LIMIT $1 OFFSET $2`
	for _, tc := range []struct {
		args []types.Value
		want string
	}{
		{[]types.Value{types.NewInt(-1), types.NewInt(0)}, "engine: LIMIT/OFFSET must be a non-negative integer"},
		{[]types.Value{types.NewInt(3), types.NewInt(-2)}, "engine: LIMIT/OFFSET must be a non-negative integer"},
		{[]types.Value{types.NewText("x"), types.NewInt(0)}, "engine: LIMIT/OFFSET must be a non-negative integer"},
		{[]types.Value{types.NewInt(3)}, "exec: parameter $2 not supplied"},
	} {
		_, err := s.Exec(q, tc.args...)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: err %v, want %q", tc.args, err, tc.want)
		}
	}
	if got := keys(t, s, `SELECT nextval('s')`); got[0] != "1" {
		t.Fatalf("nextval ran %s times during failed statements", got[0])
	}
}
